package bench

import (
	"strings"
	"testing"
)

func TestAblationSwizzleMonotone(t *testing.T) {
	tab := quick().AblationSwizzle()
	if len(tab.Rows) != 4 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	// DRAM traffic must be non-increasing with swizzle group size.
	prev := 1e18
	for i := range tab.Rows {
		gb := cellF(t, tab, i, "DRAM GB/launch")
		if gb > prev {
			t.Errorf("traffic increased at row %d: %.2f > %.2f", i, gb, prev)
		}
		prev = gb
	}
	// Swizzle must never hurt.
	if v := cellF(t, tab, 3, "vs swizzle=1"); v < 1 {
		t.Errorf("8x8 swizzle slower than none: %.2f", v)
	}
}

func TestAblationWarpsHasValidAndInvalid(t *testing.T) {
	tab := quick().AblationWarps()
	invalid := 0
	for _, r := range tab.Rows {
		if strings.Contains(strings.Join(r, " "), "invalid") {
			invalid++
		}
	}
	if invalid == 0 {
		t.Error("the 2-warp giant-tile row should blow the register cap")
	}
	if invalid >= len(tab.Rows) {
		t.Error("some warp partitions must be valid")
	}
}

func TestAblationSmallTBPrefersSmallTiles(t *testing.T) {
	tab := quick().AblationSmallTB()
	if len(tab.Rows) < 3 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	first := cellF(t, tab, 0, "time us")
	last := cellF(t, tab, len(tab.Rows)-1, "time us")
	if first >= last {
		t.Errorf("smallest threadblock (%.1fus) should beat biggest (%.1fus) on M=32", first, last)
	}
	// Active SMs must decrease as tiles grow.
	if cellF(t, tab, 0, "active SMs") <= cellF(t, tab, len(tab.Rows)-1, "active SMs") {
		t.Error("bigger tiles must strand SMs")
	}
}

func TestAblationResidenceOrdering(t *testing.T) {
	tab := quick().AblationResidence()
	if len(tab.Rows) != 3 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	unfused := cellF(t, tab, 0, "time us")
	rf := cellF(t, tab, 1, "time us")
	smem := cellF(t, tab, 2, "time us")
	if !(rf < unfused && smem < unfused) {
		t.Errorf("both residences should beat unfused: %v %v %v", unfused, rf, smem)
	}
	if rf > smem*1.05 {
		t.Errorf("RF residence (%.1f) should not lose to smem (%.1f) on a small-N pair", rf, smem)
	}
}

func TestAblationStagesHelpOnAmpere(t *testing.T) {
	tab := quick().AblationStages()
	two := cellF(t, tab, 0, "TFLOPS")
	five := cellF(t, tab, len(tab.Rows)-1, "TFLOPS")
	if five <= two {
		t.Errorf("deep cp.async pipelines should help on sm_80: %0.f vs %0.f TFLOPS", five, two)
	}
}

func TestExtensionDynamicShapes(t *testing.T) {
	tab := quick().ExtensionDynamicShapes()
	if len(tab.Rows) != 5 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	hits := 0
	for i := range tab.Rows {
		boltCost := cell(t, tab, i, "Bolt cost")
		if !strings.HasSuffix(boltCost, "s") {
			t.Errorf("row %d bolt cost %q not in seconds", i, boltCost)
		}
		switch cell(t, tab, i, "TopHub cache") {
		case "hit":
			hits++
			if cell(t, tab, i, "Ansor cost") != "0 (cached)" {
				t.Errorf("row %d: cache hit must cost nothing", i)
			}
		case "miss":
			if !strings.HasSuffix(cell(t, tab, i, "Ansor cost"), "min") {
				t.Errorf("row %d: cache miss should cost a re-tune in minutes", i)
			}
		default:
			t.Errorf("row %d: bad cache cell %q", i, cell(t, tab, i, "TopHub cache"))
		}
		// The kernels themselves: Bolt faster at every sequence length.
		if cellF(t, tab, i, "Bolt us") >= cellF(t, tab, i, "Ansor us") {
			t.Errorf("row %d: Bolt kernel not faster", i)
		}
	}
	// Exactly the static deployment shape (seq=40) hits the database —
	// that is the paper's dynamic-shape argument in one number.
	if hits != 1 {
		t.Errorf("%d cache hits, want exactly 1 (seq=40)", hits)
	}
	// Later shapes reuse compiled sample programs: profiling cost must
	// drop sharply after the first few shapes.
	first := strings.TrimSuffix(cell(t, tab, 0, "Bolt cost"), "s")
	last := strings.TrimSuffix(cell(t, tab, 4, "Bolt cost"), "s")
	f, l := mustF(t, first), mustF(t, last)
	if l > f/2 {
		t.Errorf("sample-program reuse should make later shapes cheap: first %.1fs, last %.1fs", f, l)
	}
}

func mustF(t *testing.T, s string) float64 {
	t.Helper()
	var v float64
	if _, err := fmtSscan(s, &v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestExtensionDeepChains(t *testing.T) {
	tab := quick().ExtensionDeepChains()
	// Speedup must be monotone in fusion depth.
	prev := 0.0
	for i := range tab.Rows {
		v := cellF(t, tab, i, "vs unfused")
		if v < prev {
			t.Errorf("deeper fusion got slower at row %d: %.2f < %.2f", i, v, prev)
		}
		prev = v
	}
	if prev < 1.5 {
		t.Errorf("4-layer fusion speedup %.2f too small", prev)
	}
}

func TestExtensionINT8(t *testing.T) {
	tab := quick().ExtensionINT8()
	for i := range tab.Rows {
		v := cellF(t, tab, i, "INT8 speedup")
		if v < 1.1 || v > 2.3 {
			t.Errorf("row %d INT8 speedup %.2f outside [1.1, 2.3] (IMMA peak is 2x HMMA)", i, v)
		}
	}
}

func TestAblationRegistry(t *testing.T) {
	s := quick()
	for _, id := range AblationIDs() {
		f := s.AblationByID(id)
		if f == nil {
			t.Fatalf("no regenerator for %s", id)
		}
		tab := f()
		if tab.ID != id || len(tab.Rows) == 0 {
			t.Errorf("%s malformed: id=%s rows=%d", id, tab.ID, len(tab.Rows))
		}
	}
}
