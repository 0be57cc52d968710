package opt_test

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/spec"
)

// TestPipelineDeterministic optimizes every spec benchmark several times in
// one process and requires the same text each time. Value names derive from
// creation order, so a pass that iterates a map where order matters shows up
// here (CI runs this test repeatedly).
func TestPipelineDeterministic(t *testing.T) {
	const runs = 3
	for _, b := range spec.All() {
		var first string
		for i := 0; i < runs; i++ {
			m, err := b.Compile()
			if err != nil {
				t.Fatal(err)
			}
			opt.RunPipeline(m, opt.EPVectorizerStart, nil, opt.PipelineOptions{Level: 3})
			got := ir.FormatModule(m)
			if i == 0 {
				first = got
			} else if got != first {
				t.Errorf("%s: run %d formats differently from run 1", b.Name, i+1)
				break
			}
		}
	}
}
