package lineage

import (
	"testing"

	"scaldift/internal/bdd"
	"scaldift/internal/dift"
	"scaldift/internal/prog"
)

// The BenchmarkLineage* suite measures the lineage domain's
// propagation throughput (labels/s ≈ events/s) and memory cost
// (bytes/label) against the Bool domain on the same workloads — the
// §3.4 overhead comparison.

func benchWorkload(b *testing.B, mk func() *prog.Workload, lineageDom bool) {
	b.Helper()
	var events uint64
	var nodeBytesTotal, labels uint64
	for i := 0; i < b.N; i++ {
		w := mk()
		m := w.NewMachine()
		if lineageDom {
			d := NewDomain(BitsFor(len(w.Inputs[prog.ChIn]) + 8))
			e := dift.NewEngine[bdd.Ref](d, dift.DefaultPolicy())
			m.AttachTool(e)
			if res := m.Run(); res.Failed {
				b.Fatal(res.FailMsg)
			}
			events += e.Events()
			nodeBytesTotal += uint64(d.Manager().NumNodes()) * nodeBytes
			labels += uint64(e.TaintedWords() + m.InputsConsumed())
		} else {
			e := dift.NewEngine[bool](dift.Bool{}, dift.DefaultPolicy())
			m.AttachTool(e)
			if res := m.Run(); res.Failed {
				b.Fatal(res.FailMsg)
			}
			events += e.Events()
			// Go's shadow.Mem[bool] stores one byte per label cell.
			nodeBytesTotal += uint64(e.TaintedWords() + m.InputsConsumed())
			labels += uint64(e.TaintedWords() + m.InputsConsumed())
		}
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "labels/s")
	if labels > 0 {
		b.ReportMetric(float64(nodeBytesTotal)/float64(labels), "bytes/label")
	}
}

func BenchmarkLineageStreamAgg(b *testing.B) {
	benchWorkload(b, func() *prog.Workload { return prog.StreamAgg(32, 4, 21) }, true)
}

func BenchmarkLineageKeyedMerge(b *testing.B) {
	benchWorkload(b, func() *prog.Workload { return prog.KeyedMerge(24, 40, 22) }, true)
}

func BenchmarkLineageMapReduce(b *testing.B) {
	benchWorkload(b, func() *prog.Workload { return prog.MapReduceSquares(4, 256, 23) }, true)
}

// BenchmarkLineageBoolBaseline is the same StreamAgg workload under
// the 1-bit Bool domain — the propagation-throughput baseline the
// lineage numbers are read against.
func BenchmarkLineageBoolBaseline(b *testing.B) {
	benchWorkload(b, func() *prog.Workload { return prog.StreamAgg(32, 4, 21) }, false)
}

// BenchmarkLineageJoinCached isolates the domain's Join on heavily
// overlapping sets — the memoized-union steady state.
func BenchmarkLineageJoinCached(b *testing.B) {
	d := NewDomain(12)
	m := d.Manager()
	a := m.Interval(0, 2047)
	c := m.Interval(1024, 3071)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Join(a, c)
	}
}
