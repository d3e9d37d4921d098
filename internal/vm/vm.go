// Package vm models the virtual-memory environment a basic block executes
// in: a page table mapping virtual pages to physical pages, page-fault
// reporting, and the BHive trick of mapping every virtual page a block
// touches onto one chosen physical page (which also guarantees that all
// accesses hit a physically-tagged L1 data cache).
package vm

import "fmt"

// PageSize is the virtual/physical page size in bytes.
const PageSize = 4096

// PageMask extracts the page base from an address.
const PageMask = ^uint64(PageSize - 1)

// Fault is a page fault: an access to an unmapped virtual address. It is
// the signal the monitoring process intercepts to build the page mapping.
type Fault struct {
	Addr  uint64
	Write bool
}

func (f *Fault) Error() string {
	kind := "read"
	if f.Write {
		kind = "write"
	}
	return fmt.Sprintf("vm: page fault: %s of unmapped address %#x", kind, f.Addr)
}

// PhysPage is one physical page frame.
type PhysPage struct {
	// ID is the frame number; physical addresses are ID*PageSize+offset.
	ID   uint64
	Data [PageSize]byte

	// inFree guards against a frame entering the free list twice when the
	// page table maps it under many virtual pages (the single-phys-page
	// technique makes that the common case).
	inFree bool
}

// Fill sets every 4-byte word of the page to the given pattern. BHive fills
// its single physical page with a "moderately sized" constant so that
// values loaded from memory are themselves mappable pointers.
func (p *PhysPage) Fill(pattern uint32) {
	for i := 0; i < PageSize; i += 4 {
		p.Data[i] = byte(pattern)
		p.Data[i+1] = byte(pattern >> 8)
		p.Data[i+2] = byte(pattern >> 16)
		p.Data[i+3] = byte(pattern >> 24)
	}
}

// AddressSpace is a process's page table.
type AddressSpace struct {
	pages     map[uint64]*PhysPage // virtual page base -> frame
	nextFrame uint64
	free      []*PhysPage // frames recycled by Reset, reused by NewPhysPage
}

// New returns an empty address space.
func New() *AddressSpace {
	return &AddressSpace{pages: make(map[uint64]*PhysPage), nextFrame: 1}
}

// NewPhysPage allocates a fresh physical frame, reusing one recycled by
// Reset when available. A recycled frame is zeroed and renumbered, so it
// is indistinguishable from a newly allocated one.
func (as *AddressSpace) NewPhysPage() *PhysPage {
	var p *PhysPage
	if n := len(as.free); n > 0 {
		p = as.free[n-1]
		as.free = as.free[:n-1]
		p.inFree = false
		p.Data = [PageSize]byte{}
	} else {
		p = new(PhysPage)
	}
	p.ID = as.nextFrame
	as.nextFrame++
	return p
}

// Map installs a mapping from the virtual page containing vaddr to the
// given frame (the mmapToChosenPhysPage primitive of the paper's
// pseudocode). Mapping the same frame under many virtual pages is allowed —
// that is the whole point.
func (as *AddressSpace) Map(vaddr uint64, frame *PhysPage) {
	as.pages[vaddr&PageMask] = frame
}

// Unmap removes the mapping covering vaddr.
func (as *AddressSpace) Unmap(vaddr uint64) {
	delete(as.pages, vaddr&PageMask)
}

// UnmapAll clears the page table (BHive unmaps everything except the code
// pages before the mapping run).
func (as *AddressSpace) UnmapAll() {
	as.pages = make(map[uint64]*PhysPage)
}

// Reset restores the address space to its just-constructed state — no
// mappings and frame numbering starting over at 1 — reusing the page-table
// allocation. Physical addresses (frame ID × PageSize) are therefore
// identical to a fresh New, which is what keeps cache set indexing, and
// hence measurements, byte-identical when address spaces are recycled.
//
// The frames the table referenced are recycled into NewPhysPage's free
// list (zeroed and renumbered on reuse), so the 4KB page bodies — by far
// the largest allocation of a measurement — survive across resets.
// Callers must therefore drop any frame pointers they kept once they
// Reset the address space that issued them.
func (as *AddressSpace) Reset() {
	for _, f := range as.pages {
		if !f.inFree {
			f.inFree = true
			as.free = append(as.free, f)
		}
	}
	clear(as.pages)
	as.nextFrame = 1
}

// Translate returns the frame and physical address for a virtual address.
func (as *AddressSpace) Translate(vaddr uint64) (*PhysPage, uint64, bool) {
	frame, ok := as.pages[vaddr&PageMask]
	if !ok {
		return nil, 0, false
	}
	return frame, frame.ID*PageSize + vaddr%PageSize, true
}

// Mapped reports whether vaddr is mapped.
func (as *AddressSpace) Mapped(vaddr uint64) bool {
	_, ok := as.pages[vaddr&PageMask]
	return ok
}

// NumMappings returns the number of virtual pages currently mapped.
func (as *AddressSpace) NumMappings() int { return len(as.pages) }

// DistinctFrames returns the number of distinct physical frames mapped.
func (as *AddressSpace) DistinctFrames() int {
	seen := make(map[uint64]bool)
	for _, f := range as.pages {
		seen[f.ID] = true
	}
	return len(seen)
}

// Access copies between buf and the memory at vaddr, possibly crossing a
// page boundary: into buf for a read, from buf for a write. At the first
// unmapped page it stops and returns the fault, as a value, and false;
// the pages before it have been copied.
func (as *AddressSpace) Access(vaddr uint64, buf []byte, write bool) (Fault, bool) {
	for len(buf) > 0 {
		frame, _, ok := as.Translate(vaddr)
		if !ok {
			return Fault{Addr: vaddr, Write: write}, false
		}
		off := vaddr % PageSize
		var n int
		if write {
			n = copy(frame.Data[off:], buf)
		} else {
			n = copy(buf, frame.Data[off:])
		}
		buf = buf[n:]
		vaddr += uint64(n)
	}
	return Fault{}, true
}

// ValidUserAddress reports whether an address can legally be mapped for a
// user-space process: not in the zero page (null-ish pointers) and below
// the canonical user-space ceiling. The monitor refuses to map invalid
// addresses, and such blocks fail to profile.
func ValidUserAddress(addr uint64) bool {
	return addr >= PageSize && addr < 0x0000_8000_0000_0000
}
