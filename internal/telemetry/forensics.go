// Violation forensics: allocation-site provenance, a flight recorder of
// recent memory events, and the structured ViolationReport both execution
// engines synthesize when a check fires. The paper's usability study (§4)
// shows that diagnosing *why* a check fired — real spatial violation or
// C-vs-IR semantic gap — is the hard part of deploying either mechanism;
// this file is the data model for answering that question.
package telemetry

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/ir"
)

// AllocSite is one static allocation site: a stack alloca, a global
// definition, or a malloc-family call, with enough context to name it in a
// report. Like check Sites, IDs are 1-based indices in registration order,
// so a module instrumented twice from the same clone gets identical tables.
type AllocSite struct {
	// ID is the stable allocation-site identifier (1-based; 0 = unknown).
	ID int32 `json:"id"`
	// Kind classifies the allocation: "alloca", "global" or "heap".
	Kind string `json:"kind"`
	// Func is the containing function ("" for globals).
	Func string `json:"func,omitempty"`
	// Sym is the symbol name for globals ("" otherwise).
	Sym string `json:"sym,omitempty"`
	// Loc is the C source location of the allocation.
	Loc ir.Loc `json:"-"`
	// LocStr is Loc rendered for JSON serialization.
	LocStr string `json:"loc,omitempty"`
}

// Describe renders the site for reports, e.g. `heap in main at x.c:5:10`.
func (s *AllocSite) Describe() string {
	if s == nil {
		return "unknown"
	}
	where := s.Func
	if s.Kind == "global" {
		where = s.Sym
	}
	if where == "" {
		where = "?"
	}
	return fmt.Sprintf("%s %q at %s", s.Kind, where, s.Loc)
}

// AllocTable assigns stable identifiers to allocation sites at
// instrumentation time. Lookups are O(1): the table is a dense slice indexed
// by ID (see BenchmarkAllocTableGet), never a linear scan, so synthesizing a
// report costs O(1) per resolved site.
type AllocTable struct {
	sites []AllocSite
}

// Add registers a new allocation site and returns its ID.
func (t *AllocTable) Add(kind, fn, sym string, loc ir.Loc) int32 {
	id := int32(len(t.sites) + 1)
	t.sites = append(t.sites, AllocSite{
		ID: id, Kind: kind, Func: fn, Sym: sym, Loc: loc, LocStr: loc.String(),
	})
	return id
}

// Len returns the number of registered allocation sites.
func (t *AllocTable) Len() int {
	if t == nil {
		return 0
	}
	return len(t.sites)
}

// Get returns the allocation site with the given ID, or nil. The receiver
// may be nil (forensics enabled without a site registry).
func (t *AllocTable) Get(id int32) *AllocSite {
	if t == nil || id < 1 || int(id) > len(t.sites) {
		return nil
	}
	return &t.sites[id-1]
}

// Sites returns all registered allocation sites in ID order.
func (t *AllocTable) Sites() []AllocSite {
	if t == nil {
		return nil
	}
	return t.sites
}

// EventKind classifies flight-recorder events.
type EventKind uint8

const (
	// EvAlloc: an allocation was created (Site = allocation site, Addr =
	// base, Size = byte size).
	EvAlloc EventKind = iota
	// EvFree: a heap allocation was released (Addr = base).
	EvFree
	// EvCheck: a dereference/invariant/range check passed (Site = check
	// site, Addr = checked pointer).
	EvCheck
	// EvMetaStore: SoftBound stored bounds metadata (Site = metastore site,
	// Addr = the pointer slot written).
	EvMetaStore
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EvAlloc:
		return "alloc"
	case EvFree:
		return "free"
	case EvCheck:
		return "check"
	case EvMetaStore:
		return "metastore"
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// MarshalJSON serializes the kind by name.
func (k EventKind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON parses the kind by name.
func (k *EventKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for _, c := range []EventKind{EvAlloc, EvFree, EvCheck, EvMetaStore} {
		if c.String() == s {
			*k = c
			return nil
		}
	}
	return fmt.Errorf("unknown event kind %q", s)
}

// Event is one flight-recorder entry. Instr is the VM's instruction counter
// at record time — an engine-neutral program counter that both the tree
// interpreter and the bytecode engine advance identically, which is what
// lets diff tests require byte-identical reports.
type Event struct {
	Instr uint64    `json:"instr"`
	Kind  EventKind `json:"kind"`
	// Site is the check site (EvCheck/EvMetaStore) or allocation site
	// (EvAlloc); 0 for EvFree and unattributed operations.
	Site int32  `json:"site"`
	Addr uint64 `json:"addr"`
	// Size is the allocation size for EvAlloc (0 otherwise).
	Size uint64 `json:"size,omitempty"`
}

// String renders the event as one report line.
func (e Event) String() string {
	switch e.Kind {
	case EvAlloc:
		return fmt.Sprintf("[%8d] alloc     site#%-4d addr=%#x size=%d", e.Instr, e.Site, e.Addr, e.Size)
	case EvFree:
		return fmt.Sprintf("[%8d] free      %10s addr=%#x", e.Instr, "", e.Addr)
	case EvMetaStore:
		return fmt.Sprintf("[%8d] metastore site#%-4d addr=%#x", e.Instr, e.Site, e.Addr)
	}
	return fmt.Sprintf("[%8d] check     site#%-4d ptr=%#x", e.Instr, e.Site, e.Addr)
}

// DefaultFlightSize is the ring capacity used when forensics is enabled
// without an explicit size.
const DefaultFlightSize = 16

// Flight is a fixed-size ring buffer of recent memory events — the flight
// recorder a violation report replays. Recording is O(1) and allocation-free
// after construction; all methods are nil-safe so callers can record
// unconditionally on the instrumented path.
type Flight struct {
	ring  []Event
	next  int
	total uint64
}

// NewFlight returns a flight recorder keeping the last n events (n < 1 uses
// DefaultFlightSize).
func NewFlight(n int) *Flight {
	if n < 1 {
		n = DefaultFlightSize
	}
	return &Flight{ring: make([]Event, n)}
}

// Record appends an event, evicting the oldest once the ring is full.
func (f *Flight) Record(e Event) {
	if f == nil {
		return
	}
	f.ring[f.next] = e
	f.next = (f.next + 1) % len(f.ring)
	f.total++
}

// Len returns the number of retained events (at most the ring capacity).
func (f *Flight) Len() int {
	if f == nil {
		return 0
	}
	if f.total < uint64(len(f.ring)) {
		return int(f.total)
	}
	return len(f.ring)
}

// Total returns the number of events ever recorded (including evicted ones).
func (f *Flight) Total() uint64 {
	if f == nil {
		return 0
	}
	return f.total
}

// Events returns the retained events, oldest first.
func (f *Flight) Events() []Event {
	n := f.Len()
	if n == 0 {
		return nil
	}
	out := make([]Event, 0, n)
	start := (f.next - n + len(f.ring)) % len(f.ring)
	for i := 0; i < n; i++ {
		out = append(out, f.ring[(start+i)%len(f.ring)])
	}
	return out
}

// AccessInfo describes the faulting access of a ViolationReport.
type AccessInfo struct {
	// Site is the check-site ID that fired (0 for wrapper checks, which are
	// placed by the runtime rather than the instrumentation).
	Site int32 `json:"site"`
	// Kind/Width/Func/Loc are resolved from the check-site registry when one
	// was supplied to the VM (empty otherwise).
	Kind  string `json:"kind,omitempty"`
	Width int    `json:"width,omitempty"`
	Func  string `json:"func,omitempty"`
	Loc   string `json:"loc,omitempty"`
	// Base/Bound are the bounds the check ran against (Bound is 0 for
	// Low-Fat checks, whose bound is implied by the slot size).
	Base  uint64 `json:"base"`
	Bound uint64 `json:"bound,omitempty"`
}

// AllocInfo is the allocation a violation report attributes the faulting
// pointer to.
type AllocInfo struct {
	// Site is the allocation-site ID (0 when the allocation could not be
	// resolved; the rest of the fields are then zero too).
	Site int32 `json:"site"`
	// Kind/Func/Sym/Loc are resolved from the allocation-site registry when
	// one was supplied to the VM.
	Kind string `json:"kind,omitempty"`
	Func string `json:"func,omitempty"`
	Sym  string `json:"sym,omitempty"`
	Loc  string `json:"loc,omitempty"`
	// Base/Size are the runtime placement of the allocation.
	Base uint64 `json:"base"`
	Size uint64 `json:"size"`
	// Slot is the low-fat slot size backing the allocation (0 when the
	// allocation is not low-fat).
	Slot uint64 `json:"slot,omitempty"`
	// Distance is the signed byte distance of the faulting pointer from the
	// object: negative below the base, positive past the last valid byte,
	// 0 when the pointer itself is inside the object (the access width then
	// spilled past the end).
	Distance int64 `json:"distance"`
}

// RegionState is one low-fat region's allocator state at violation time.
type RegionState struct {
	Index     int    `json:"index"`
	SlotSize  uint64 `json:"slotSize"`
	Next      uint64 `json:"next"`
	StackNext uint64 `json:"stackNext"`
	FreeSlots int    `json:"freeSlots"`
}

// ViolationReport is the structured diagnostic both engines synthesize when
// a check fires: the faulting access, the allocation the pointer belongs (or
// nearly belongs) to, a snapshot of the mechanism's runtime state, and the
// tail of the flight recorder.
type ViolationReport struct {
	// Mechanism/Kind/Ptr/Detail mirror the ViolationError the report rides.
	Mechanism string     `json:"mechanism"`
	Kind      string     `json:"kind"`
	Ptr       uint64     `json:"ptr"`
	Detail    string     `json:"detail"`
	Access    AccessInfo `json:"access"`
	// Alloc is nil when no allocation could be attributed (e.g. SoftBound
	// null-bounds false positives, where the metadata miss *is* the story).
	Alloc *AllocInfo `json:"alloc,omitempty"`
	// ShadowDepth is the SoftBound shadow-stack nesting depth (SoftBound
	// violations only).
	ShadowDepth int `json:"shadowDepth,omitempty"`
	// Regions is the Low-Fat allocator snapshot: every region with at least
	// one allocation (Low-Fat violations only).
	Regions []RegionState `json:"regions,omitempty"`
	// Events is the flight-recorder tail, oldest first.
	Events []Event `json:"events"`
	// EventsDropped counts older events the ring had already evicted.
	EventsDropped uint64 `json:"eventsDropped,omitempty"`
}

// JSON serializes the report (indented, trailing newline), the format the
// campaign's -reports directory and CI artifacts use.
func (r *ViolationReport) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// ParseReport deserializes a report produced by JSON (mi-prof -report).
func ParseReport(data []byte) (*ViolationReport, error) {
	var r ViolationReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// Render formats the report for humans. The output is deterministic given
// identical VM state, so the differential tests require it byte-identical
// across engines.
func (r *ViolationReport) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== memory-safety violation: %s/%s ==\n", r.Mechanism, r.Kind)
	fmt.Fprintf(&sb, "pointer %#x: %s\n", r.Ptr, r.Detail)

	a := r.Access
	fmt.Fprintf(&sb, "check site #%d", a.Site)
	if a.Kind != "" {
		fmt.Fprintf(&sb, ": %s", a.Kind)
		if a.Width > 0 {
			fmt.Fprintf(&sb, "[w%d]", a.Width)
		}
		fmt.Fprintf(&sb, " in %s at %s", a.Func, a.Loc)
	} else if a.Site == 0 {
		sb.WriteString(" (runtime wrapper check)")
	}
	sb.WriteString("\n")
	if a.Bound != 0 || a.Base != 0 {
		fmt.Fprintf(&sb, "checked against base %#x", a.Base)
		if a.Bound != 0 {
			fmt.Fprintf(&sb, ", bound %#x", a.Bound)
		}
		sb.WriteString("\n")
	}

	if al := r.Alloc; al != nil {
		fmt.Fprintf(&sb, "allocation site #%d", al.Site)
		if al.Kind != "" {
			loc := al.Loc
			if loc == "" {
				loc = "?"
			}
			if al.Kind == "global" {
				fmt.Fprintf(&sb, ": global @%s", al.Sym)
			} else {
				fmt.Fprintf(&sb, ": %s in %s at %s", al.Kind, al.Func, loc)
			}
		}
		sb.WriteString("\n")
		fmt.Fprintf(&sb, "  base %#x size %d", al.Base, al.Size)
		if al.Slot != 0 {
			fmt.Fprintf(&sb, " (low-fat slot %d)", al.Slot)
		}
		switch {
		case al.Distance > 0:
			fmt.Fprintf(&sb, ", pointer %+d byte(s) past the object end", al.Distance)
		case al.Distance < 0:
			fmt.Fprintf(&sb, ", pointer %d byte(s) below the object base", al.Distance)
		default:
			sb.WriteString(", pointer inside the object (access width spills past the end)")
		}
		sb.WriteString("\n")
	} else {
		sb.WriteString("allocation: unresolved (no tracked allocation covers this pointer;\n" +
			"  for SoftBound this usually means missing or stale metadata, cf. Figure 7)\n")
	}

	if r.Mechanism == "softbound" {
		fmt.Fprintf(&sb, "shadow-stack depth: %d\n", r.ShadowDepth)
	}
	if len(r.Regions) > 0 {
		sb.WriteString("low-fat regions in use:\n")
		for _, reg := range r.Regions {
			fmt.Fprintf(&sb, "  region %2d: slot %10d next=%#x stackNext=%#x free=%d\n",
				reg.Index, reg.SlotSize, reg.Next, reg.StackNext, reg.FreeSlots)
		}
	}

	if len(r.Events) == 0 {
		sb.WriteString("flight recorder: no events\n")
	} else {
		fmt.Fprintf(&sb, "flight recorder (last %d event(s), %d older dropped):\n",
			len(r.Events), r.EventsDropped)
		for _, e := range r.Events {
			fmt.Fprintf(&sb, "  %s\n", e)
		}
	}
	return sb.String()
}
