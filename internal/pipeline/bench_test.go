package pipeline

import (
	"testing"
	"time"

	"scaldift/internal/bdd"
	"scaldift/internal/dift"
	"scaldift/internal/lineage"
	"scaldift/internal/prog"
	"scaldift/internal/vm"
)

// The BenchmarkPipeline* suite measures inline vs. offloaded DIFT on
// prog workloads: events/s (VM instructions analyzed per second of
// wall time) and slowdown-vs-native (instrumented wall time over the
// tool-free run). Offloaded variants run the full concurrent
// pipeline end-to-end; Analyze variants time the analyze stage alone
// over a pre-recorded stream.

// runInline executes w's machine under an inline engine of the named
// domain and returns the steps analyzed.
func runInline(b testing.TB, w *prog.Workload, domain string) uint64 {
	m := w.NewMachine()
	switch domain {
	case "bool":
		m.AttachTool(dift.NewEngine[bool](dift.Bool{}, dift.DefaultPolicy()))
	case "lineage":
		d := lineage.NewDomain(lineage.BitsFor(len(w.Inputs[prog.ChIn]) + 8))
		e := dift.NewEngine[bdd.Ref](d, dift.DefaultPolicy())
		e.AddSink(lineage.NewRecorder(d))
		m.AttachTool(e)
	default:
		b.Fatalf("unknown domain %q", domain)
	}
	if res := m.Run(); res.Failed {
		b.Fatal(res.FailMsg)
	}
	return m.Steps()
}

// runOffloaded executes w's machine with the concurrent pipeline
// attached and returns the steps analyzed.
func runOffloaded(b testing.TB, w *prog.Workload, domain string) uint64 {
	m := w.NewMachine()
	var res *vm.Result
	switch domain {
	case "bool":
		p := New[bool](dift.Bool{}, dift.DefaultPolicy(), Options{})
		res = Run(m, p)
	case "lineage":
		d := lineage.NewDomain(lineage.BitsFor(len(w.Inputs[prog.ChIn]) + 8))
		p := New[bdd.Ref](d, dift.DefaultPolicy(), Options{})
		p.AddSink(lineage.NewRecorder(d))
		res = Run(m, p)
	default:
		b.Fatalf("unknown domain %q", domain)
	}
	if res.Failed {
		b.Fatal(res.FailMsg)
	}
	return m.Steps()
}

func benchPipeline(b *testing.B, mk func() *prog.Workload, domain string, offloaded bool) {
	// Native baseline, untimed: tool-free wall per run.
	wn := mk()
	mn := wn.NewMachine()
	t0 := time.Now()
	if res := mn.Run(); res.Failed {
		b.Fatal(res.FailMsg)
	}
	nativeSec := time.Since(t0).Seconds()

	b.ResetTimer()
	var steps uint64
	for i := 0; i < b.N; i++ {
		w := mk()
		if offloaded {
			steps += runOffloaded(b, w, domain)
		} else {
			steps += runInline(b, w, domain)
		}
	}
	el := b.Elapsed().Seconds()
	if el > 0 {
		b.ReportMetric(float64(steps)/el, "events/s")
	}
	if nativeSec > 0 {
		b.ReportMetric(el/float64(b.N)/nativeSec, "x-native")
	}
}

func mkStreamAgg() *prog.Workload  { return prog.StreamAgg(4096, 4, 21) }
func mkKeyedMerge() *prog.Workload { return prog.KeyedMerge(64, 512, 22) }
func mkMapReduce() *prog.Workload  { return prog.MapReduceSquares(4, 8192, 23) }

func BenchmarkPipelineStreamAggLineageInline(b *testing.B) {
	benchPipeline(b, mkStreamAgg, "lineage", false)
}
func BenchmarkPipelineStreamAggLineageOffloaded(b *testing.B) {
	benchPipeline(b, mkStreamAgg, "lineage", true)
}
func BenchmarkPipelineStreamAggBoolInline(b *testing.B) {
	benchPipeline(b, mkStreamAgg, "bool", false)
}
func BenchmarkPipelineStreamAggBoolOffloaded(b *testing.B) {
	benchPipeline(b, mkStreamAgg, "bool", true)
}
func BenchmarkPipelineKeyedMergeLineageInline(b *testing.B) {
	benchPipeline(b, mkKeyedMerge, "lineage", false)
}
func BenchmarkPipelineKeyedMergeLineageOffloaded(b *testing.B) {
	benchPipeline(b, mkKeyedMerge, "lineage", true)
}
func BenchmarkPipelineMapReduceLineageInline(b *testing.B) {
	benchPipeline(b, mkMapReduce, "lineage", false)
}
func BenchmarkPipelineMapReduceLineageOffloaded(b *testing.B) {
	benchPipeline(b, mkMapReduce, "lineage", true)
}

// BenchmarkPipelineStreamAggLockedLineageLive is the helper-bound live
// case (bench/'s stream-lineage: one thread, the locked lineage
// domain, shipped defaults). The helper is slower than the recorder,
// so the queue stays full and the hand-off shape — batch size × queue
// depth — sets how often the execution thread is parked and woken.
// exec-events/s stops the clock when the machine halts, events/s when
// Close has drained the helper.
func BenchmarkPipelineStreamAggLockedLineageLive(b *testing.B) {
	w := prog.StreamAgg(9000, 4, 1)
	bits := lineage.BitsFor(len(w.Inputs[prog.ChIn]) + 8)
	b.ResetTimer()
	var steps uint64
	var exec time.Duration
	for i := 0; i < b.N; i++ {
		d := lineage.NewLockedDomain(bits)
		p := New[bdd.Ref](d, dift.DefaultPolicy(), Options{})
		p.AddSink(lineage.NewRecorder(d.Domain))
		m := w.NewMachine()
		p.Attach(m)
		t0 := time.Now()
		res := m.Run()
		exec += time.Since(t0)
		p.Close()
		if res.Failed {
			b.Fatal(res.FailMsg)
		}
		steps += m.Steps()
	}
	b.ReportMetric(float64(steps)/exec.Seconds(), "exec-events/s")
	b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "events/s")
}

// benchAnalyze measures the analyze stage alone: one offline trace,
// recorded once, propagated through a fresh pipeline per iteration —
// the propagation speed with the recorder out of the picture.
func benchAnalyze(b *testing.B, mk func() *prog.Workload, domain string) {
	w := mk()
	m := w.NewMachine()
	trace, res := Collect(m, vm.DefaultBatchEvents)
	if res.Failed {
		b.Fatal(res.FailMsg)
	}
	steps := m.Steps()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		consumeTrace(b, w, domain, trace)
	}
	if el := b.Elapsed().Seconds(); el > 0 {
		b.ReportMetric(float64(steps)*float64(b.N)/el, "events/s")
	}
}

func BenchmarkPipelineAnalyzeStreamAggLineage(b *testing.B) {
	benchAnalyze(b, mkStreamAgg, "lineage")
}
func BenchmarkPipelineAnalyzeKeyedMergeLineage(b *testing.B) {
	benchAnalyze(b, mkKeyedMerge, "lineage")
}
func BenchmarkPipelineAnalyzeMapReduceLineage(b *testing.B) {
	benchAnalyze(b, mkMapReduce, "lineage")
}
func BenchmarkPipelineAnalyzeStreamAggBool(b *testing.B) {
	benchAnalyze(b, mkStreamAgg, "bool")
}

// consumeTrace propagates an offline trace through a fresh pipeline.
func consumeTrace(t testing.TB, w *prog.Workload, domain string, batches []*vm.Batch) {
	switch domain {
	case "bool":
		p := New[bool](dift.Bool{}, dift.DefaultPolicy(), Options{})
		p.Consume(batches)
		p.Close()
	case "lineage":
		d := lineage.NewDomain(lineage.BitsFor(len(w.Inputs[prog.ChIn]) + 8))
		p := New[bdd.Ref](d, dift.DefaultPolicy(), Options{})
		p.AddSink(lineage.NewRecorder(d))
		p.Consume(batches)
		p.Close()
	default:
		t.Fatalf("unknown domain %q", domain)
	}
}
