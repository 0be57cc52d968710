package bytecode

import (
	"fmt"
	"go/constant"
	"go/token"
	"go/types"
	"testing"

	"repro/internal/lowfat"
	"repro/internal/mem"
)

// TestNativePageSlotsDistinct evaluates the generated page-cache slot
// expression on the pages every run touches first: the first page of each
// Low-Fat size region, the top page of each region's stack mirror, the heap,
// the globals and the stack. Each must get its own slot, or those regions
// evict each other on every alternating access. On those pages, and on a
// sweep of page ids across every region boundary, the generated expression
// must equal natSlot, the interpreter's spelling of the same slot function.
func TestNativePageSlotsDistinct(t *testing.T) {
	slotOf := func(pn uint64) uint64 {
		expr := string(natSlotExpr(nil, fmt.Appendf(nil, "%#x", pn)))
		tv, err := types.Eval(token.NewFileSet(), nil, token.NoPos, expr)
		if err != nil {
			t.Fatalf("evaluating %s: %v", expr, err)
		}
		v, ok := constant.Uint64Val(tv.Value)
		if !ok || v >= natPageWays {
			t.Fatalf("%s = %v, not a slot below %d", expr, tv.Value, natPageWays)
		}
		if g := natSlot(pn); g != v {
			t.Fatalf("page id %#x: generated slot %d, natSlot %d", pn, v, g)
		}
		return v
	}
	type page struct {
		name string
		addr uint64
	}
	pages := []page{{"heap", mem.HeapBase}, {"globals", mem.GlobalsBase}, {"stack top", mem.StackTop - 1}}
	for i := uint64(1); i <= lowfat.NumRegions; i++ {
		pages = append(pages,
			page{fmt.Sprintf("region %d", i), i << lowfat.RegionBits},
			page{fmt.Sprintf("region %d stack mirror top", i), (i+1)<<lowfat.RegionBits - 1})
	}
	owner := map[uint64]string{}
	for _, p := range pages {
		s := slotOf(p.addr>>mem.PageBits + 1)
		if o, clash := owner[s]; clash {
			t.Errorf("%s and %s share page-cache slot %d", o, p.name, s)
		}
		owner[s] = p.name
	}
	for i := uint64(1); i <= lowfat.NumRegions+1; i++ {
		edge := i<<(lowfat.RegionBits-mem.PageBits) + 1
		for pn := edge - natPageWays; pn < edge+natPageWays; pn++ {
			slotOf(pn)
		}
	}
}
