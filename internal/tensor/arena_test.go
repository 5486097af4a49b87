package tensor

import "testing"

func TestArenaAndView(t *testing.T) {
	a := NewArena([]int{16, 4})
	if a.NumBuffers() != 2 {
		t.Fatalf("buffers = %d", a.NumBuffers())
	}
	if a.FootprintElems() != 20 {
		t.Errorf("footprint = %d", a.FootprintElems())
	}
	buf := a.Buffer(0)
	v := View(FP16, LayoutNHWC, buf[:16], 1, 2, 2, 4)
	v.Fill(2)
	if buf[3] != 2 {
		t.Error("view does not alias the arena buffer")
	}
	// A second view over the same buffer sees the first view's data —
	// the aliasing the planner's disjoint live ranges make safe.
	v2 := View(FP32, LayoutRowMajor, buf[:8], 2, 4)
	if v2.At(0, 3) != 2 {
		t.Error("recycled buffer must carry prior contents")
	}
}

func TestViewRejectsBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch must panic")
		}
	}()
	View(FP16, LayoutRowMajor, make([]float32, 3), 2, 2)
}

func TestLayoutIntoVariantsMatchAllocating(t *testing.T) {
	x := NewWithLayout(FP16, LayoutNCHW, 2, 3, 4, 5)
	x.FillRandom(11, 1)

	want := ToNHWCInto(nil, x)
	dst := NewWithLayout(FP16, LayoutNHWC, 2, 4, 5, 3)
	if got := ToNHWCInto(dst, x); MaxAbsDiff(got, want) != 0 {
		t.Error("ToNHWCInto deviates from ToNHWC")
	}
	back := NewWithLayout(FP16, LayoutNCHW, 2, 3, 4, 5)
	if got := ToNCHWInto(back, want); MaxAbsDiff(got, x) != 0 {
		t.Error("ToNCHWInto does not invert ToNHWC")
	}

	nhwc := ToNHWCInto(nil, x)
	wantPad := PadChannelsInto(nil, nhwc, 8)
	dstPad := NewWithLayout(FP16, LayoutNHWC, 2, 4, 5, 8)
	dstPad.Fill(9) // dirty destination: pad lanes must be re-zeroed
	if got := PadChannelsInto(dstPad, nhwc, 8); MaxAbsDiff(got, wantPad) != 0 {
		t.Error("PadChannelsInto deviates (stale pad lanes?)")
	}
	wantSlice := SliceChannelsInto(nil, wantPad, 3)
	dstSlice := NewWithLayout(FP16, LayoutNHWC, 2, 4, 5, 3)
	if got := SliceChannelsInto(dstSlice, wantPad, 3); MaxAbsDiff(got, wantSlice) != 0 {
		t.Error("SliceChannelsInto deviates")
	}
}
