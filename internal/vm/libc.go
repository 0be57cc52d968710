package vm

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/ir"
	"repro/internal/softbound"
)

// registerLibc installs the simulated C standard library. When the VM runs a
// SoftBound-instrumented program, the handlers double as the SoftBound
// wrappers of Figure 6: they keep the bounds trie coherent across bulk
// copies, record return-pointer bounds on the shadow stack and (optionally)
// check the accessed widths. Low-Fat Pointers need no wrappers (Section 4.3):
// heap allocations automatically use the low-fat malloc via Options.
func registerLibc(v *VM) {
	v.heapSizes = make(map[uint64]uint64)

	v.RegisterExternal("malloc", libcMalloc)
	v.RegisterExternal("calloc", libcCalloc)
	v.RegisterExternal("realloc", libcRealloc)
	v.RegisterExternal("free", libcFree)

	v.RegisterExternal("memcpy", libcMemcpy)
	v.RegisterExternal("memmove", libcMemmove)
	v.RegisterExternal("memset", libcMemset)
	v.RegisterExternal("memcmp", libcMemcmp)
	v.RegisterExternal("strlen", libcStrlen)
	v.RegisterExternal("strcpy", libcStrcpy)
	v.RegisterExternal("strncpy", libcStrncpy)
	v.RegisterExternal("strcmp", libcStrcmp)
	v.RegisterExternal("strncmp", libcStrncmp)
	v.RegisterExternal("strcat", libcStrcat)
	v.RegisterExternal("strchr", libcStrchr)

	v.RegisterExternal("printf", libcPrintf)
	v.RegisterExternal("puts", libcPuts)
	v.RegisterExternal("putchar", libcPutchar)

	v.RegisterExternal("exit", func(vm *VM, _ *ir.Instr, args []uint64) (uint64, error) {
		return 0, exitSignal{code: int32(args[0])}
	})
	v.RegisterExternal("abort", func(vm *VM, _ *ir.Instr, _ []uint64) (uint64, error) {
		return 0, &RuntimeError{Msg: "abort() called"}
	})

	v.RegisterExternal("rand", func(vm *VM, _ *ir.Instr, _ []uint64) (uint64, error) {
		// xorshift64*: deterministic across runs, decoupled from Go's rand.
		vm.rng ^= vm.rng >> 12
		vm.rng ^= vm.rng << 25
		vm.rng ^= vm.rng >> 27
		vm.Stats.Cost += 6
		return (vm.rng * 0x2545F4914F6CDD1D) >> 33 & 0x7FFFFFFF, nil
	})
	v.RegisterExternal("srand", func(vm *VM, _ *ir.Instr, args []uint64) (uint64, error) {
		vm.rng = args[0] | 1
		return 0, nil
	})

	mathFn := func(name string, f func(float64) float64) {
		v.RegisterExternal(name, func(vm *VM, _ *ir.Instr, args []uint64) (uint64, error) {
			vm.Stats.Cost += 20
			return math.Float64bits(f(math.Float64frombits(args[0]))), nil
		})
	}
	mathFn("sqrt", math.Sqrt)
	mathFn("fabs", math.Abs)
	mathFn("exp", math.Exp)
	mathFn("log", math.Log)
	mathFn("sin", math.Sin)
	mathFn("cos", math.Cos)
	mathFn("floor", math.Floor)
	mathFn("ceil", math.Ceil)
	v.RegisterExternal("pow", func(vm *VM, _ *ir.Instr, args []uint64) (uint64, error) {
		vm.Stats.Cost += 30
		return math.Float64bits(math.Pow(math.Float64frombits(args[0]), math.Float64frombits(args[1]))), nil
	})
	v.RegisterExternal("abs", func(vm *VM, _ *ir.Instr, args []uint64) (uint64, error) {
		vm.Stats.Cost += 2
		x := int32(args[0])
		if x < 0 {
			x = -x
		}
		return uint64(uint32(x)), nil
	})
}

// heapAlloc allocates from the configured heap and tracks the requested
// size. site is the static allocation site of the requesting call (0 when
// unknown); it feeds the forensics allocation map. Both engines route heap
// allocation through here, so attribution is engine-neutral by construction.
func (v *VM) heapAlloc(size uint64, site int32) (uint64, error) {
	v.Stats.Allocs++
	v.Stats.Cost += v.cost.MallocBase + size/1024*v.cost.MallocPerKiB
	var addr uint64
	var err error
	if v.opts.LowFatHeap {
		addr, _, err = v.LF.Alloc(size)
	} else {
		addr, err = v.Std.Alloc(size)
	}
	if err != nil {
		return 0, err
	}
	v.heapSizes[addr] = size
	v.TrackAlloc(addr, size, site)
	return addr, nil
}

func (v *VM) heapFree(addr uint64) error {
	if addr == 0 {
		return nil
	}
	v.Stats.Frees++
	v.Stats.Cost += v.cost.MallocBase / 2
	if _, ok := v.heapSizes[addr]; !ok {
		return &RuntimeError{Msg: fmt.Sprintf("invalid free of %#x", addr)}
	}
	delete(v.heapSizes, addr)
	v.TrackFree(addr)
	if v.opts.LowFatHeap {
		return v.LF.Free(addr)
	}
	return v.Std.Free(addr)
}

// allocSiteOf extracts the allocation-site ID of a malloc-family call
// (nil-tolerant: top-level external invocations pass a nil instruction).
func allocSiteOf(call *ir.Instr) int32 {
	if call == nil {
		return 0
	}
	return call.AllocSite
}

func libcMalloc(v *VM, call *ir.Instr, args []uint64) (uint64, error) {
	return v.heapAlloc(args[0], allocSiteOf(call))
}

func libcCalloc(v *VM, call *ir.Instr, args []uint64) (uint64, error) {
	n := args[0] * args[1]
	addr, err := v.heapAlloc(n, allocSiteOf(call))
	if err != nil {
		return 0, err
	}
	v.Stats.Cost += n * v.cost.MemPerByte / 8
	return addr, v.AS.Memset(addr, 0, n)
}

func libcRealloc(v *VM, call *ir.Instr, args []uint64) (uint64, error) {
	old, size := args[0], args[1]
	addr, err := v.heapAlloc(size, allocSiteOf(call))
	if err != nil {
		return 0, err
	}
	if old != 0 {
		oldSize := v.heapSizes[old]
		n := oldSize
		if size < n {
			n = size
		}
		if err := v.AS.Memmove(addr, old, n); err != nil {
			return 0, err
		}
		v.Stats.Cost += n * v.cost.MemPerByte
		if v.Trie != nil {
			v.Trie.CopyRange(addr, old, n)
		}
		if err := v.heapFree(old); err != nil {
			return 0, err
		}
	}
	return addr, nil
}

func libcFree(v *VM, _ *ir.Instr, args []uint64) (uint64, error) {
	return 0, v.heapFree(args[0])
}

// sbWrapperCheck implements the check_abort calls of the wrappers (Figure 6)
// when wrapper checking is enabled.
func sbWrapperCheck(v *VM, argIdx int, ptr, width uint64) error {
	if v.Trie == nil || !v.opts.SBCheckWrappers || width == 0 {
		return nil
	}
	b := softbound.Bounds{Base: v.Shadow.Arg(argIdx).Base, Bound: v.Shadow.Arg(argIdx).Bound}
	v.Stats.Checks++
	v.Stats.Cost += v.cost.SBCheck
	if b.IsWide() {
		v.Stats.WideChecks++
		return nil
	}
	if !b.Check(ptr, width) {
		detail := fmt.Sprintf("wrapper access of %d bytes outside [%#x, %#x)", width, b.Base, b.Bound)
		return v.violation(&ViolationError{Mechanism: "softbound", Kind: "wrapper", Ptr: ptr, Detail: detail}, 0, width, b.Base, b.Bound)
	}
	return nil
}

// sbSetRetFromArg propagates the bounds of pointer argument argIdx to the
// shadow stack's return slot (store_bs_bd_ret in Figure 6).
func sbSetRetFromArg(v *VM, argIdx int) {
	if v.Trie == nil || v.Shadow.Depth() == 0 {
		return
	}
	v.Shadow.SetRet(v.Shadow.Arg(argIdx))
	v.Stats.ShadowOps++
	v.Stats.Cost += v.cost.SBShadowOp
}

func libcMemcpy(v *VM, _ *ir.Instr, args []uint64) (uint64, error) {
	dst, src, n := args[0], args[1], args[2]
	if err := sbWrapperCheck(v, 1, dst, n); err != nil {
		return 0, err
	}
	if err := sbWrapperCheck(v, 2, src, n); err != nil {
		return 0, err
	}
	if err := v.AS.Memmove(dst, src, n); err != nil {
		return 0, err
	}
	v.Stats.Cost += n * v.cost.MemPerByte
	if v.Trie != nil && n > 0 {
		// copy_metadata: walk the pointer slots of the copied range.
		v.Trie.CopyRange(dst, src, n)
		slots := n / 8
		v.Stats.MetaLoads += slots
		v.Stats.MetaStores += slots
		v.Stats.Cost += slots * (v.cost.SBMetaLoad + v.cost.SBMetaStore)
	}
	sbSetRetFromArg(v, 1)
	return dst, nil
}

func libcMemmove(v *VM, call *ir.Instr, args []uint64) (uint64, error) {
	return libcMemcpy(v, call, args)
}

func libcMemset(v *VM, _ *ir.Instr, args []uint64) (uint64, error) {
	dst, c, n := args[0], args[1], args[2]
	if err := sbWrapperCheck(v, 1, dst, n); err != nil {
		return 0, err
	}
	if err := v.AS.Memset(dst, byte(c), n); err != nil {
		return 0, err
	}
	v.Stats.Cost += n * v.cost.MemPerByte
	if v.Trie != nil {
		v.Trie.InvalidateRange(dst, n)
	}
	sbSetRetFromArg(v, 1)
	return dst, nil
}

func libcMemcmp(v *VM, _ *ir.Instr, args []uint64) (uint64, error) {
	a, b, n := args[0], args[1], args[2]
	v.Stats.Cost += n * v.cost.MemPerByte
	for i := uint64(0); i < n; i++ {
		x, err := v.AS.Load(a+i, 1)
		if err != nil {
			return 0, err
		}
		y, err := v.AS.Load(b+i, 1)
		if err != nil {
			return 0, err
		}
		if x != y {
			if x < y {
				return uint64(uint32(0xFFFFFFFF)), nil // -1 as i32
			}
			return 1, nil
		}
	}
	return 0, nil
}

func libcStrlen(v *VM, _ *ir.Instr, args []uint64) (uint64, error) {
	s, err := v.AS.ReadCString(args[0])
	if err != nil {
		return 0, err
	}
	v.Stats.Cost += uint64(len(s)+1) * v.cost.MemPerByte
	return uint64(len(s)), nil
}

func libcStrcpy(v *VM, _ *ir.Instr, args []uint64) (uint64, error) {
	dst := args[0]
	s, err := v.AS.ReadCString(args[1])
	if err != nil {
		return 0, err
	}
	n := uint64(len(s) + 1)
	if err := sbWrapperCheck(v, 1, dst, n); err != nil {
		return 0, err
	}
	v.Stats.Cost += n * v.cost.MemPerByte
	if err := v.AS.WriteBytes(dst, append([]byte(s), 0)); err != nil {
		return 0, err
	}
	if v.Trie != nil {
		v.Trie.InvalidateRange(dst, n)
	}
	sbSetRetFromArg(v, 1)
	return dst, nil
}

func libcStrncpy(v *VM, _ *ir.Instr, args []uint64) (uint64, error) {
	dst, n := args[0], args[2]
	s, err := v.AS.ReadCString(args[1])
	if err != nil {
		return 0, err
	}
	buf := make([]byte, n)
	copy(buf, s)
	if err := sbWrapperCheck(v, 1, dst, n); err != nil {
		return 0, err
	}
	v.Stats.Cost += n * v.cost.MemPerByte
	if err := v.AS.WriteBytes(dst, buf); err != nil {
		return 0, err
	}
	if v.Trie != nil {
		v.Trie.InvalidateRange(dst, n)
	}
	sbSetRetFromArg(v, 1)
	return dst, nil
}

func libcStrcmp(v *VM, _ *ir.Instr, args []uint64) (uint64, error) {
	a, err := v.AS.ReadCString(args[0])
	if err != nil {
		return 0, err
	}
	b, err := v.AS.ReadCString(args[1])
	if err != nil {
		return 0, err
	}
	v.Stats.Cost += uint64(min(len(a), len(b))+1) * v.cost.MemPerByte
	return uint64(uint32(strings.Compare(a, b))), nil
}

func libcStrncmp(v *VM, _ *ir.Instr, args []uint64) (uint64, error) {
	n := args[2]
	a, err := v.AS.ReadCString(args[0])
	if err != nil {
		return 0, err
	}
	b, err := v.AS.ReadCString(args[1])
	if err != nil {
		return 0, err
	}
	if uint64(len(a)) > n {
		a = a[:n]
	}
	if uint64(len(b)) > n {
		b = b[:n]
	}
	v.Stats.Cost += uint64(min(len(a), len(b))+1) * v.cost.MemPerByte
	return uint64(uint32(strings.Compare(a, b))), nil
}

func libcStrcat(v *VM, _ *ir.Instr, args []uint64) (uint64, error) {
	dst := args[0]
	d, err := v.AS.ReadCString(dst)
	if err != nil {
		return 0, err
	}
	s, err := v.AS.ReadCString(args[1])
	if err != nil {
		return 0, err
	}
	n := uint64(len(d) + len(s) + 1)
	if err := sbWrapperCheck(v, 1, dst, n); err != nil {
		return 0, err
	}
	v.Stats.Cost += n * v.cost.MemPerByte
	if err := v.AS.WriteBytes(dst+uint64(len(d)), append([]byte(s), 0)); err != nil {
		return 0, err
	}
	sbSetRetFromArg(v, 1)
	return dst, nil
}

func libcStrchr(v *VM, _ *ir.Instr, args []uint64) (uint64, error) {
	s, err := v.AS.ReadCString(args[0])
	if err != nil {
		return 0, err
	}
	v.Stats.Cost += uint64(len(s)+1) * v.cost.MemPerByte
	c := byte(args[1])
	if i := strings.IndexByte(s, c); i >= 0 {
		// The result derives from the argument; propagate its bounds.
		sbSetRetFromArg(v, 1)
		return args[0] + uint64(i), nil
	}
	if c == 0 {
		sbSetRetFromArg(v, 1)
		return args[0] + uint64(len(s)), nil
	}
	if v.Trie != nil && v.Shadow.Depth() > 0 {
		v.Shadow.SetRet(softbound.NullBounds)
	}
	return 0, nil
}

func libcPuts(v *VM, _ *ir.Instr, args []uint64) (uint64, error) {
	s, err := v.AS.ReadCString(args[0])
	if err != nil {
		return 0, err
	}
	v.Stats.Cost += uint64(len(s)) * v.cost.MemPerByte
	fmt.Fprintln(&v.out, s)
	return uint64(len(s) + 1), nil
}

func libcPutchar(v *VM, _ *ir.Instr, args []uint64) (uint64, error) {
	fmt.Fprintf(&v.out, "%c", rune(byte(args[0])))
	return args[0], nil
}

// libcPrintf implements a useful subset of printf: %d %i %u %x %c %s %f %g %e
// %p %% with optional l/ll length modifiers and width like %5d / %-8s / %08x
// and precision for floats.
func libcPrintf(v *VM, call *ir.Instr, args []uint64) (uint64, error) {
	format, err := v.AS.ReadCString(args[0])
	if err != nil {
		return 0, err
	}
	v.Stats.Cost += uint64(len(format)) * 2
	var argTypes []*ir.Type
	if call != nil {
		for _, a := range call.Args() {
			argTypes = append(argTypes, a.Type())
		}
	}
	out := &strings.Builder{}
	ai := 1
	nextArg := func() (uint64, *ir.Type) {
		if ai >= len(args) {
			return 0, ir.I64
		}
		var t *ir.Type
		if ai < len(argTypes) {
			t = argTypes[ai]
		} else {
			t = ir.I64
		}
		val := args[ai]
		ai++
		return val, t
	}

	i := 0
	for i < len(format) {
		c := format[i]
		if c != '%' {
			out.WriteByte(c)
			i++
			continue
		}
		// Collect the conversion specification.
		j := i + 1
		spec := "%"
		for j < len(format) && strings.ContainsRune("-+ 0123456789.", rune(format[j])) {
			spec += string(format[j])
			j++
		}
		// Skip length modifiers.
		for j < len(format) && (format[j] == 'l' || format[j] == 'h' || format[j] == 'z') {
			j++
		}
		if j >= len(format) {
			out.WriteString(spec)
			break
		}
		verb := format[j]
		i = j + 1
		switch verb {
		case '%':
			out.WriteByte('%')
		case 'd', 'i':
			val, t := nextArg()
			bits := 64
			if t.IsInt() {
				bits = t.Bits
			}
			fmt.Fprintf(out, spec+"d", signExtend(val, bits))
		case 'u':
			val, t := nextArg()
			bits := 64
			if t.IsInt() {
				bits = t.Bits
			}
			fmt.Fprintf(out, spec+"d", truncate(val, bits))
		case 'x', 'X', 'o':
			val, t := nextArg()
			bits := 64
			if t.IsInt() {
				bits = t.Bits
			}
			fmt.Fprintf(out, spec+string(verb), truncate(val, bits))
		case 'c':
			val, _ := nextArg()
			fmt.Fprintf(out, spec+"c", rune(byte(val)))
		case 's':
			val, _ := nextArg()
			s, err := v.AS.ReadCString(val)
			if err != nil {
				return 0, err
			}
			fmt.Fprintf(out, spec+"s", s)
		case 'p':
			val, _ := nextArg()
			fmt.Fprintf(out, "%#x", val)
		case 'f', 'F', 'g', 'G', 'e', 'E':
			val, _ := nextArg()
			f := math.Float64frombits(val)
			vspec := spec
			if (verb == 'f' || verb == 'F') && !strings.Contains(spec, ".") {
				vspec += ".6"
			}
			fmt.Fprintf(out, vspec+string(verb|0x20), f)
		default:
			out.WriteString(spec)
			out.WriteByte(verb)
		}
	}
	s := out.String()
	fmt.Fprint(&v.out, s)
	return uint64(len(s)), nil
}
