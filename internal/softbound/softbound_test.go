package softbound

import (
	"testing"
	"testing/quick"
)

func TestBoundsCheck(t *testing.T) {
	b := Bounds{Base: 1000, Bound: 1064}
	cases := []struct {
		ptr, width uint64
		ok         bool
	}{
		{1000, 8, true},
		{1056, 8, true},
		{1057, 8, false}, // crosses the bound
		{1063, 1, true},
		{1064, 1, false}, // one past the end
		{999, 1, false},  // underflow
		{1000, 64, true},
		{1000, 65, false},
	}
	for _, c := range cases {
		if got := b.Check(c.ptr, c.width); got != c.ok {
			t.Errorf("Check(%d, %d) = %t, want %t", c.ptr, c.width, got, c.ok)
		}
	}
}

func TestSentinelBounds(t *testing.T) {
	if !WideBounds.IsWide() || WideBounds.IsNull() {
		t.Error("wide sentinel misclassified")
	}
	if !NullBounds.IsNull() || NullBounds.IsWide() {
		t.Error("null sentinel misclassified")
	}
	if NullBounds.Check(0x1000, 1) {
		t.Error("null bounds admit an access")
	}
	if !WideBounds.Check(0xdeadbeef, 4096) {
		t.Error("wide bounds reject an access")
	}
}

func TestCheckOverflowWrap(t *testing.T) {
	// ptr+width overflowing uint64 must not pass the check.
	b := Bounds{Base: 0, Bound: ^uint64(0)}
	if b.Check(^uint64(0)-1, 8) {
		t.Error("wrapping access accepted")
	}
}

func TestTrieStoreLookup(t *testing.T) {
	tr := NewTrie()
	addr := uint64(0x5000_0000_0000)
	want := Bounds{Base: 0x1000, Bound: 0x2000}
	tr.Store(addr, want)
	got, ok := tr.Lookup(addr)
	if !ok || got != want {
		t.Errorf("Lookup = %+v, %t", got, ok)
	}
	// A different slot misses.
	if _, ok := tr.Lookup(addr + 8); ok {
		t.Error("adjacent slot unexpectedly hit")
	}
	if tr.Misses != 1 || tr.Lookups != 2 || tr.Stores != 1 {
		t.Errorf("stats: %d lookups, %d stores, %d misses", tr.Lookups, tr.Stores, tr.Misses)
	}
}

func TestTrieSlotGranularity(t *testing.T) {
	tr := NewTrie()
	addr := uint64(0x5000_0000_0000)
	tr.Store(addr, Bounds{Base: 1, Bound: 2})
	// Metadata is per 8-byte slot: an unaligned address within the slot
	// maps to the same entry (byte-granular tracking is not possible).
	got, ok := tr.Lookup(addr + 3)
	if !ok || got.Base != 1 {
		t.Error("intra-slot lookup missed")
	}
}

func TestTrieInvalidate(t *testing.T) {
	tr := NewTrie()
	addr := uint64(0x5000_0000_0000)
	tr.Store(addr, Bounds{Base: 1, Bound: 2})
	tr.Invalidate(addr)
	if _, ok := tr.Lookup(addr); ok {
		t.Error("invalidated slot still hits")
	}
	tr.Store(addr, Bounds{Base: 1, Bound: 2})
	tr.Store(addr+16, Bounds{Base: 3, Bound: 4})
	tr.InvalidateRange(addr, 24)
	if _, ok := tr.Lookup(addr); ok {
		t.Error("range invalidation missed first slot")
	}
	if _, ok := tr.Lookup(addr + 16); ok {
		t.Error("range invalidation missed last slot")
	}
}

func TestTrieCopyRange(t *testing.T) {
	tr := NewTrie()
	src := uint64(0x5000_0000_0000)
	dst := uint64(0x6000_0000_0000)
	b1 := Bounds{Base: 0x10, Bound: 0x20}
	b2 := Bounds{Base: 0x30, Bound: 0x40}
	tr.Store(src, b1)
	tr.Store(src+8, b2)
	tr.Store(dst+16, Bounds{Base: 0x99, Bound: 0x9A}) // stale dest metadata

	tr.CopyRange(dst, src, 24)

	if got, ok := tr.Lookup(dst); !ok || got != b1 {
		t.Errorf("slot 0 = %+v, %t", got, ok)
	}
	if got, ok := tr.Lookup(dst + 8); !ok || got != b2 {
		t.Errorf("slot 1 = %+v, %t", got, ok)
	}
	// The third slot's source has no metadata: stale dest entry must go.
	if _, ok := tr.Lookup(dst + 16); ok {
		t.Error("stale destination metadata survived the copy")
	}
}

func TestTrieCopyRangeUnaligned(t *testing.T) {
	tr := NewTrie()
	src := uint64(0x5000_0000_0000)
	tr.Store(src, Bounds{Base: 0x10, Bound: 0x20})
	// A byte-wise (unaligned) copy cannot transport pointer metadata: the
	// destination slots must not inherit bounds.
	dst := uint64(0x6000_0000_0003)
	tr.Store(dst&^uint64(7), Bounds{Base: 0x77, Bound: 0x78})
	tr.CopyRange(dst, src, 16)
	if got, _ := tr.Lookup(dst); got.Base == 0x10 {
		t.Error("unaligned copy transported metadata")
	}
}

// Property: the trie behaves like a map keyed by 8-byte slots.
func TestTrieMapEquivalenceProperty(t *testing.T) {
	tr := NewTrie()
	model := map[uint64]Bounds{}
	f := func(slotRaw uint16, base, bound uint32, del bool) bool {
		addr := 0x5000_0000_0000 + uint64(slotRaw)*8
		if del {
			tr.Invalidate(addr)
			delete(model, addr)
		} else {
			b := Bounds{Base: uint64(base), Bound: uint64(bound)}
			tr.Store(addr, b)
			model[addr] = b
		}
		got, ok := tr.Lookup(addr)
		want, wok := model[addr]
		return ok == wok && (!ok || got == want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestShadowStackArgsAndRet(t *testing.T) {
	ss := NewShadowStack(256)
	caller := Bounds{Base: 100, Bound: 200}
	ss.AllocateFrame(2)
	ss.SetArg(1, caller)
	ss.SetArg(2, Bounds{Base: 300, Bound: 400})
	if ss.Arg(1) != caller {
		t.Error("arg 1 wrong")
	}
	if ss.Arg(2).Base != 300 {
		t.Error("arg 2 wrong")
	}
	ss.SetRet(Bounds{Base: 7, Bound: 8})
	if ss.Ret().Base != 7 {
		t.Error("ret slot wrong")
	}
	ss.PopFrame()
	if ss.Depth() != 0 {
		t.Error("depth after pop")
	}
}

func TestShadowStackNesting(t *testing.T) {
	ss := NewShadowStack(256)
	ss.AllocateFrame(1)
	ss.SetArg(1, Bounds{Base: 1, Bound: 2})
	// Nested call must not clobber the outer frame.
	ss.AllocateFrame(1)
	ss.SetArg(1, Bounds{Base: 3, Bound: 4})
	if ss.Arg(1).Base != 3 {
		t.Error("inner frame arg wrong")
	}
	ss.PopFrame()
	if ss.Arg(1).Base != 1 {
		t.Error("outer frame clobbered by nested call")
	}
	ss.PopFrame()
}

// TestShadowStackStaleness documents the deliberate staleness semantics of
// Section 4.3: frames are not cleared on allocation, so a callee that never
// writes its return slot leaves whatever an earlier call stored there.
func TestShadowStackStaleness(t *testing.T) {
	ss := NewShadowStack(256)
	ss.AllocateFrame(0)
	ss.SetRet(Bounds{Base: 42, Bound: 43}) // instrumented callee
	ss.PopFrame()

	ss.AllocateFrame(0) // uninstrumented callee writes nothing
	if got := ss.Ret(); got.Base != 42 {
		t.Errorf("expected stale bounds from the previous call, got %+v", got)
	}
	ss.PopFrame()
}

// Property: a sequence of balanced frames always restores the previous
// frame's contents after popping.
func TestShadowStackBalanceProperty(t *testing.T) {
	ss := NewShadowStack(64)
	f := func(vals []uint32) bool {
		var stack []Bounds
		for _, v := range vals {
			if len(stack) > 0 && v%4 == 0 {
				// Pop and verify.
				want := stack[len(stack)-1]
				if ss.Arg(1) != want {
					return false
				}
				ss.PopFrame()
				stack = stack[:len(stack)-1]
				continue
			}
			b := Bounds{Base: uint64(v), Bound: uint64(v) + 10}
			ss.AllocateFrame(1)
			ss.SetArg(1, b)
			stack = append(stack, b)
			if len(stack) > 40 {
				break // bound the depth; the frames still unwind below
			}
		}
		for range stack {
			ss.PopFrame()
		}
		return ss.Depth() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
