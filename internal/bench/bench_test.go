package bench

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"bolt/internal/gpu"
)

// quick returns a shared quick-mode suite (per-test isolation is not
// needed: experiments are deterministic given the suite's seeds).
func quick() *Suite { return NewQuickSuite(gpu.T4()) }

func cell(t *testing.T, tab *Table, row int, col string) string {
	t.Helper()
	for i, c := range tab.Columns {
		if c == col {
			return tab.Rows[row][i]
		}
	}
	t.Fatalf("%s: no column %q", tab.ID, col)
	return ""
}

func cellF(t *testing.T, tab *Table, row int, col string) float64 {
	t.Helper()
	s := strings.TrimSuffix(cell(t, tab, row, col), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("%s row %d col %s: %v", tab.ID, row, col, err)
	}
	return v
}

func TestFigure1Shape(t *testing.T) {
	tab := quick().Figure1()
	if len(tab.Rows) != 5 {
		t.Fatalf("fig1 has %d rows, want 5", len(tab.Rows))
	}
	for i := range tab.Rows {
		r := cellF(t, tab, i, "Ansor")
		if r > 0.30 {
			t.Errorf("fig1 row %d: Ansor at %.0f%% of cuBLAS; paper shape is <~20%%", i, r*100)
		}
		if r < 0.05 {
			t.Errorf("fig1 row %d: Ansor at %.0f%% implausibly slow", i, r*100)
		}
	}
}

func TestFigure8aShape(t *testing.T) {
	tab := quick().Figure8a()
	if len(tab.Rows) != 6 {
		t.Fatalf("fig8a has %d rows", len(tab.Rows))
	}
	// Row 0 is the memory-bound (32,768,768): small speedup.
	if v := cellF(t, tab, 0, "Bolt"); v < 1.0 || v > 2.5 {
		t.Errorf("memory-bound GEMM speedup %.2f outside [1.0, 2.5] (paper: 1.9)", v)
	}
	// Compute-intensive rows: 6.1-9.5x in the paper; accept 4.5-11.
	for i := 1; i < 6; i++ {
		if v := cellF(t, tab, i, "Bolt"); v < 4.5 || v > 11 {
			t.Errorf("row %d speedup %.2f outside [4.5, 11] (paper: 6.1-9.5)", i, v)
		}
	}
}

func TestFigure8bShape(t *testing.T) {
	tab := quick().Figure8b()
	if len(tab.Rows) != 7 {
		t.Fatalf("fig8b has %d rows", len(tab.Rows))
	}
	for i := range tab.Rows {
		if v := cellF(t, tab, i, "Bolt"); v < 2.0 || v > 5.0 {
			t.Errorf("conv row %d speedup %.2f outside [2, 5] (paper: 2.7-3.5)", i, v)
		}
	}
}

func TestFigure9Shape(t *testing.T) {
	s := quick()
	for _, tab := range []*Table{s.Figure9a(), s.Figure9b()} {
		if len(tab.Rows) != 4 {
			t.Fatalf("%s has %d rows", tab.ID, len(tab.Rows))
		}
		sum := 0.0
		for i := range tab.Rows {
			v := cellF(t, tab, i, "Bolt w/ fusion")
			sum += v
			if v < 1.1 {
				t.Errorf("%s row %d: fusion speedup %.2f < 1.1", tab.ID, i, v)
			}
		}
		avg := sum / 4
		if avg < 1.25 || avg > 1.7 {
			t.Errorf("%s average fusion speedup %.2f outside [1.25, 1.7] (paper: 1.45/1.38)", tab.ID, avg)
		}
	}
}

func TestTable1Shape(t *testing.T) {
	tab := quick().Table1()
	if len(tab.Rows) != 4 {
		t.Fatalf("tab1 has %d rows", len(tab.Rows))
	}
	for i := range tab.Rows {
		if v := cellF(t, tab, i, "w/ fuse"); v < 1.1 || v > 2.2 {
			t.Errorf("tab1 row %d fusion speedup %.2f outside [1.1, 2.2] (paper: 1.24-1.46)", i, v)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	tab := quick().Table2()
	if len(tab.Rows) != 6 {
		t.Fatalf("tab2 has %d rows", len(tab.Rows))
	}
	for i := range tab.Rows {
		if v := cellF(t, tab, i, "w/ fuse"); v < 1.05 || v > 2.3 {
			t.Errorf("tab2 row %d fusion speedup %.2f outside [1.05, 2.3] (paper: 1.10-2.02)", i, v)
		}
	}
}

func TestTable3Shape(t *testing.T) {
	tab := quick().Table3()
	if len(tab.Rows) != 6 {
		t.Fatalf("tab3 has %d rows", len(tab.Rows))
	}
	wins := 0
	for i := range tab.Rows {
		sp := cellF(t, tab, i, "padded")
		cost := cellF(t, tab, i, "cost")
		if sp >= 1.05 {
			wins++
		}
		if cost <= 0 || cost >= 60 {
			t.Errorf("tab3 row %d pad cost %.0f%% outside (0, 60)", i, cost)
		}
	}
	// Padding must win on most workloads (the paper's average is 1.8x;
	// our pad kernel is relatively more expensive on the smallest
	// shapes — see EXPERIMENTS.md).
	if wins < 4 {
		t.Errorf("padding won on only %d/6 workloads", wins)
	}
}

func TestFigure10Shape(t *testing.T) {
	s := quick()
	a := s.Figure10a()
	if len(a.Rows) != 6 {
		t.Fatalf("fig10a has %d rows", len(a.Rows))
	}
	speedups := map[string]float64{}
	for i := range a.Rows {
		name := cell(t, a, i, "model")
		v := cellF(t, a, i, "speedup")
		speedups[name] = v
		if v < 1.3 {
			t.Errorf("%s end-to-end speedup %.2f < 1.3", name, v)
		}
		if v > 6 {
			t.Errorf("%s end-to-end speedup %.2f implausibly high", name, v)
		}
	}
	// Paper ordering: VGG gains most, ResNet least.
	if speedups["VGG-16"] <= speedups["ResNet-50"] {
		t.Error("VGG should gain more than ResNet (paper: 4.2x vs 1.5x)")
	}

	b := s.Figure10b()
	for i := range b.Rows {
		ansorT, err := time.ParseDuration(cell(t, b, i, "Ansor"))
		if err != nil {
			t.Fatal(err)
		}
		boltT, err := time.ParseDuration(cell(t, b, i, "Bolt"))
		if err != nil {
			t.Fatal(err)
		}
		if boltT > 20*time.Minute {
			t.Errorf("%s: Bolt tuning %v exceeds the paper's 20-minute bound", cell(t, b, i, "model"), boltT)
		}
		if ansorT < 2*time.Hour {
			t.Errorf("%s: Ansor tuning %v suspiciously fast (paper: ~12h average)", cell(t, b, i, "model"), ansorT)
		}
		if ansorT < 20*boltT {
			t.Errorf("%s: Ansor/Bolt tuning ratio %.0f too small", cell(t, b, i, "model"), float64(ansorT)/float64(boltT))
		}
	}
}

func TestTable4Shape(t *testing.T) {
	tab := quick().Table4()
	speed := map[string]float64{}
	acc := map[string]float64{}
	for i := range tab.Rows {
		name := cell(t, tab, i, "activation")
		speed[name] = cellF(t, tab, i, "speed (img/s)")
		acc[name] = cellF(t, tab, i, "top-1 acc")
	}
	// Paper ordering: relu fastest, then hardswish, gelu, softplus
	// slowest; hardswish most accurate.
	if !(speed["relu"] >= speed["hardswish"] && speed["hardswish"] >= speed["gelu"] && speed["gelu"] >= speed["softplus"]) {
		t.Errorf("activation speed ordering wrong: %v", speed)
	}
	if acc["hardswish"] <= acc["relu"] {
		t.Error("hardswish should beat relu accuracy (paper: +0.67)")
	}
	// Even the most expensive activation costs little thanks to
	// epilogue fusion (paper: softplus -7.7%).
	if drop := 1 - speed["softplus"]/speed["relu"]; drop > 0.15 {
		t.Errorf("softplus costs %.0f%% of speed; fusion should keep it under 15%%", drop*100)
	}
}

func TestTable5Shape(t *testing.T) {
	tab := quick().Table5()
	if len(tab.Rows) != 6 {
		t.Fatalf("tab5 has %d rows", len(tab.Rows))
	}
	get := func(model string) (acc, sp, params float64) {
		for i := range tab.Rows {
			if cell(t, tab, i, "model") == model {
				return cellF(t, tab, i, "top-1 acc"), cellF(t, tab, i, "speed (img/s)"), cellF(t, tab, i, "params (M)")
			}
		}
		t.Fatalf("no row %s", model)
		return
	}
	for _, v := range []string{"A0", "A1", "B0"} {
		baseAcc, baseSp, baseP := get("RepVGG-" + v)
		augAcc, augSp, augP := get("RepVGGAug-" + v)
		if augAcc <= baseAcc {
			t.Errorf("%s: deepening should raise accuracy", v)
		}
		if augSp >= baseSp {
			t.Errorf("%s: deepening cannot be free", v)
		}
		if augP <= baseP {
			t.Errorf("%s: deepening must add params", v)
		}
		// Persistent fusion keeps the speed cost moderate (paper:
		// ~15.3% average; our fused 1x1s land in the same regime).
		if drop := 1 - augSp/baseSp; drop > 0.45 {
			t.Errorf("%s: 1x1 deepening costs %.0f%% speed — persistent fusion not effective", v, drop*100)
		}
	}
}

func TestTable6Shape(t *testing.T) {
	tab := quick().Table6()
	get := func(model string) (acc, sp float64) {
		for i := range tab.Rows {
			if cell(t, tab, i, "model") == model {
				return cellF(t, tab, i, "top-1 acc"), cellF(t, tab, i, "speed (img/s)")
			}
		}
		t.Fatalf("no row %s", model)
		return
	}
	// Paper headline: RepVGGAug-A1 beats RepVGG-B0 on accuracy while
	// remaining speed-competitive: codesign > conventional deepening.
	augA1Acc, augA1Sp := get("RepVGGAug-A1")
	b0Acc, b0Sp := get("RepVGG-B0")
	if augA1Acc <= b0Acc {
		t.Errorf("RepVGGAug-A1 (%.2f) should out-accuracy RepVGG-B0 (%.2f)", augA1Acc, b0Acc)
	}
	if augA1Sp < 0.7*b0Sp {
		t.Errorf("RepVGGAug-A1 speed %.0f too far below RepVGG-B0 %.0f", augA1Sp, b0Sp)
	}
}

func TestAllAndByID(t *testing.T) {
	s := quick()
	ids := IDs()
	if len(ids) != 13 {
		t.Fatalf("%d experiment ids, want 13 (every table and figure)", len(ids))
	}
	for _, id := range ids {
		f := s.ByID(id)
		if f == nil {
			t.Fatalf("no regenerator for %s", id)
		}
		tab := f()
		if tab.ID != id {
			t.Errorf("regenerator %s produced table %s", id, tab.ID)
		}
		if len(tab.Rows) == 0 {
			t.Errorf("%s produced no rows", id)
		}
		if !strings.Contains(tab.Render(), tab.Title) {
			t.Errorf("%s render missing title", id)
		}
	}
}
