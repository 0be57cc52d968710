package main

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/spec"
)

// Workload generators. Every op sequence is a pure function of the seed:
// the same seed drives the program under test with the same inputs, and a
// different seed reorders them. The program only ever receives these
// generated cells.

// cellSpec names one cell: a benchmark under a named configuration, plus the
// VM variants a served request may ask for.
type cellSpec struct {
	Bench       string
	Config      string
	SiteProfile bool
	Forensics   bool
}

func (c cellSpec) String() string {
	s := c.Bench + "/" + c.Config
	if c.SiteProfile {
		s += "+prof"
	}
	if c.Forensics {
		s += "+forensics"
	}
	return s
}

// fig9Configs is the paper's Fig. 9 matrix: the baseline and both
// mechanisms, fully optimized.
var fig9Configs = []string{"baseline", "softbound", "lowfat"}

// namedConfigs are the nine configurations a campaign request can name.
var namedConfigs = []string{
	"baseline", "softbound", "lowfat",
	"softbound+hoist", "lowfat+hoist",
	"softbound-noopt", "lowfat-noopt",
	"softbound-meta", "lowfat-meta",
}

func benchNames() []string {
	var names []string
	for _, b := range spec.All() {
		names = append(names, b.Name)
	}
	return names
}

// matrix returns every bench × config cell in suite order.
func matrix(benches, configs []string) []cellSpec {
	var cells []cellSpec
	for _, b := range benches {
		for _, c := range configs {
			cells = append(cells, cellSpec{Bench: b, Config: c})
		}
	}
	return cells
}

func shuffle[T any](rng *rand.Rand, xs []T) []T {
	out := append([]T(nil), xs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// warmPass returns the cell order of one campaign-warm pass: the Fig. 9
// matrix with the benchmark order shuffled by (seed, pass) and each
// benchmark's configurations in figure order, as the harness runs them.
func warmPass(seed int64, pass int) []cellSpec {
	rng := rand.New(rand.NewSource(seed*7919 + int64(pass)))
	return matrix(shuffle(rng, benchNames()), fig9Configs)
}

// stratified orders cells in rounds: each round visits every benchmark
// once, in a seeded order, and takes that benchmark's next cell in a seeded
// order. A cell's cost depends mostly on its benchmark, so every prefix of
// the sequence has nearly the same benchmark mix whatever the seed.
func stratified(rng *rand.Rand, cells []cellSpec) []cellSpec {
	byBench := map[string][]cellSpec{}
	for _, c := range cells {
		byBench[c.Bench] = append(byBench[c.Bench], c)
	}
	names := benchNames()
	for _, b := range names {
		byBench[b] = shuffle(rng, byBench[b])
	}
	out := make([]cellSpec, 0, len(cells))
	for len(out) < len(cells) {
		for _, b := range shuffle(rng, names) {
			if q := byBench[b]; len(q) > 0 {
				out = append(out, q[0])
				byBench[b] = q[1:]
			}
		}
	}
	return out
}

// coldOrder returns the seeded order in which campaign-cold draws cells from
// its pool of distinct programs.
func coldOrder(seed int64, pool []cellSpec) []cellSpec {
	return stratified(rand.New(rand.NewSource(seed)), pool)
}

// arrival is one serve-mix request: when it is due, relative to the start
// of the window, and the one cell it asks for.
type arrival struct {
	Due  time.Duration
	Cell cellSpec
	Miss bool
}

// serveMix describes the serve-mix traffic: a Poisson stream of one-cell
// requests at Rate per second, a MissShare of which bring a cell no earlier
// request asked for; the rest repeat a cell of the Popular set.
type serveMix struct {
	Rate      float64
	MissShare float64
	Popular   []cellSpec
	// MissBenches are the programs new cells come from.
	MissBenches []string
}

// missVariants are the VM variants a new cell comes in; missPattern indexes
// them for successive misses: half plain, a quarter each with site
// profiling or forensics recording.
var (
	missVariants = []struct{ prof, forensics bool }{{false, false}, {true, false}, {false, true}}
	missPattern  = []int{0, 1, 0, 2}
)

// schedule generates the arrivals of one window: a Poisson process
// conditioned on Rate × window arrivals. Misses take one seeded position in
// every block of 1/MissShare consecutive arrivals, so every seed offers the
// same work and two misses rarely arrive back to back: a Poisson clump of
// misses would queue them behind each other and make the tail measure the
// clump, not the cells. The misses are the same new cells in a seeded order,
// so the seed moves when work arrives but not how much there is.
func (m serveMix) schedule(seed int64, window time.Duration) []arrival {
	rng := rand.New(rand.NewSource(seed))
	n := int(math.Round(m.Rate * window.Seconds()))
	out := make([]arrival, n)
	for i := range out {
		out[i].Due = time.Duration(rng.Int63n(int64(window)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Due < out[j].Due })
	block := int(math.Round(1 / m.MissShare))
	news := shuffle(rng, m.missCells(n/block))
	for k, c := range news {
		i := k*block + rng.Intn(block)
		out[i].Cell, out[i].Miss = c, true
	}
	for i := range out {
		if !out[i].Miss {
			out[i].Cell = m.Popular[rng.Intn(len(m.Popular))]
		}
	}
	return out
}

// missCells returns the first k new cells of a fixed sequence that walks the
// miss programs round by round. Round r gives every program the variant
// missPattern names for r, in that program's next configuration not yet
// used with the variant, so configurations and variants spread evenly and
// no cell repeats.
func (m serveMix) missCells(k int) []cellSpec {
	names := m.MissBenches
	used := map[cellSpec]bool{}
	var out []cellSpec
	for j := 0; len(out) < k && j < len(names)*len(namedConfigs)*len(missPattern); j++ {
		b, r := j%len(names), j/len(names)
		v := missVariants[missPattern[r%len(missPattern)]]
		for i := range namedConfigs {
			c := cellSpec{Bench: names[b], Config: namedConfigs[(2*b+5*i)%len(namedConfigs)],
				SiteProfile: v.prof, Forensics: v.forensics}
			if !used[c] && !m.isPopular(c) {
				used[c] = true
				out = append(out, c)
				break
			}
		}
	}
	return out
}

func (m serveMix) isPopular(c cellSpec) bool {
	for _, p := range m.Popular {
		if p == c {
			return true
		}
	}
	return false
}
