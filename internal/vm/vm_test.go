package vm

import "testing"

func TestMapTranslate(t *testing.T) {
	as := New()
	p := as.NewPhysPage()
	as.Map(0x12345678, p)
	if !as.Mapped(0x12345000) || !as.Mapped(0x12345FFF) {
		t.Fatal("whole page must be mapped")
	}
	if as.Mapped(0x12346000) {
		t.Fatal("next page must not be mapped")
	}
	_, phys, ok := as.Translate(0x12345678)
	if !ok || phys != p.ID*PageSize+0x678 {
		t.Fatalf("translate: %#x", phys)
	}
}

func TestSinglePhysPageAliasing(t *testing.T) {
	as := New()
	p := as.NewPhysPage()
	as.Map(0x10000, p)
	as.Map(0x99000, p)
	if as.NumMappings() != 2 || as.DistinctFrames() != 1 {
		t.Fatalf("mappings=%d frames=%d", as.NumMappings(), as.DistinctFrames())
	}
	// A write through one virtual page is visible through the other: the
	// aliasing the single-physical-page trick relies on.
	if f, ok := as.Access(0x10008, []byte{0xAB}, true); !ok {
		t.Fatal(f.Error())
	}
	var buf [1]byte
	if f, ok := as.Access(0x99008, buf[:], false); !ok {
		t.Fatal(f.Error())
	}
	if buf[0] != 0xAB {
		t.Fatal("aliased frame must share contents")
	}
}

func TestFaultReporting(t *testing.T) {
	as := New()
	f, ok := as.Access(0x5000, make([]byte, 8), false)
	if ok || f.Addr != 0x5000 || f.Write {
		t.Fatalf("got %+v, %v", f, ok)
	}
	f, ok = as.Access(0x5000, make([]byte, 8), true)
	if ok || f.Addr != 0x5000 || !f.Write {
		t.Fatalf("got %+v, %v", f, ok)
	}
	if got, want := f.Error(), "vm: page fault: write of unmapped address 0x5000"; got != want {
		t.Fatalf("Error() = %q, want %q", got, want)
	}
}

// TestResetRecyclesFrames pins Reset: no mappings, frame numbering from 1
// again, and each frame recycled once however many pages mapped it, then
// handed out zeroed before any fresh frame.
func TestResetRecyclesFrames(t *testing.T) {
	as := New()
	p := as.NewPhysPage()
	p.Fill(0xdeadbeef)
	as.Map(0x10000, p)
	as.Map(0x20000, p) // one frame under two pages
	as.Reset()
	if as.NumMappings() != 0 {
		t.Fatalf("%d mappings after Reset", as.NumMappings())
	}
	q := as.NewPhysPage()
	if q != p || q.ID != 1 || q.Data != ([PageSize]byte{}) {
		t.Fatalf("first frame after Reset: recycled %v, ID %d; want the zeroed frame numbered 1", q == p, q.ID)
	}
	if r := as.NewPhysPage(); r == p || r.ID != 2 {
		t.Fatalf("second frame after Reset: recycled %v, ID %d; want a fresh frame numbered 2", r == p, r.ID)
	}
}

func TestCrossPageAccess(t *testing.T) {
	as := New()
	p1, p2 := as.NewPhysPage(), as.NewPhysPage()
	as.Map(0x10000, p1)
	as.Map(0x11000, p2)
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if f, ok := as.Access(0x10FFC, data, true); !ok {
		t.Fatal(f.Error())
	}
	got := make([]byte, 8)
	if f, ok := as.Access(0x10FFC, got, false); !ok {
		t.Fatal(f.Error())
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d: %d", i, got[i])
		}
	}
	if p1.Data[PageSize-4] != 1 || p2.Data[3] != 8 {
		t.Fatal("bytes must straddle the frames")
	}
	// Fault midway: only the first page mapped.
	as = New()
	as.Map(0x10000, as.NewPhysPage())
	if f, ok := as.Access(0x10FFC, data, true); ok || f.Addr != 0x11000 {
		t.Fatalf("got %+v, %v; want a fault on the second page", f, ok)
	}
}

func TestFill(t *testing.T) {
	as := New()
	p := as.NewPhysPage()
	p.Fill(0x12345600)
	if p.Data[0] != 0x00 || p.Data[1] != 0x56 || p.Data[2] != 0x34 || p.Data[3] != 0x12 {
		t.Fatal("little-endian fill")
	}
	if p.Data[PageSize-1] != 0x12 {
		t.Fatal("fill must cover the page")
	}
}

func TestValidUserAddress(t *testing.T) {
	cases := map[uint64]bool{
		0:                     false,
		100:                   false, // null page
		PageSize:              true,
		0x12345600:            true,
		0x7FFF_FFFF_F000:      true,
		0x0000_8000_0000_0000: false, // non-canonical start
		0xFFFF_8000_0000_0000: false, // kernel half
	}
	for addr, want := range cases {
		if got := ValidUserAddress(addr); got != want {
			t.Errorf("ValidUserAddress(%#x) = %v", addr, got)
		}
	}
}
