package ontrac

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"scaldift/internal/benchfp"
	"scaldift/internal/ddg"
	"scaldift/internal/pipeline"
	"scaldift/internal/prog"
	"scaldift/internal/vm"
)

// The BenchmarkOntracPipeline* suite measures inline vs. offloaded
// ONTRAC tracing on prog workloads: events/s of the execution thread
// (VM instructions over wall time). RecordOnly is the paper's
// headline comparison — what the execution thread pays when tracing
// is offloaded (one filter check + one struct copy per instruction)
// versus carrying the full extractor inline.
//
// TestWriteBenchOntracJSON (env ONTRAC_BENCH_JSON=1) times the record
// and trace stages separately via CollectWith/Consume and writes
// BENCH_ontrac.json at the repo root.

func benchWorkloads() map[string]func() *prog.Workload {
	return map[string]func() *prog.Workload{
		"compress": func() *prog.Workload { return prog.Compress(12000, 1) },
		"matmul":   func() *prog.Workload { return prog.MatMul(14, 3) },
		"psum":     func() *prog.Workload { return prog.PSum(4, 4000, 7) },
	}
}

// runOntracInline executes w's machine under the inline tracer and
// returns the steps traced.
func runOntracInline(b testing.TB, w *prog.Workload, opts Options) uint64 {
	m := w.NewMachine()
	tr := New(w.Prog, opts)
	m.AttachTool(tr.Tool())
	if res := m.Run(); res.Failed {
		b.Fatal(res.FailMsg)
	}
	return m.Steps()
}

// runOntracRecordOnly executes w's machine with only the batching
// recorder attached (the offloaded design's execution-thread cost).
func runOntracRecordOnly(b testing.TB, w *prog.Workload) uint64 {
	m := w.NewMachine()
	var rec *vm.Recorder
	rec = vm.NewRecorder(vm.DefaultBatchEvents, ddg.TraceRelevant, func(bt *vm.Batch) { rec.Free(bt) })
	m.AttachTool(rec)
	if res := m.Run(); res.Failed {
		b.Fatal(res.FailMsg)
	}
	rec.Flush()
	return m.Steps()
}

// runOntracOffloaded executes w's machine with the full concurrent
// offloaded stage attached.
func runOntracOffloaded(b testing.TB, w *prog.Workload, opts Options) uint64 {
	m := w.NewMachine()
	off := NewOffloaded(w.Prog, opts, pipeline.Options{})
	if res := Trace(m, off); res.Failed {
		b.Fatal(res.FailMsg)
	}
	return m.Steps()
}

func benchOntrac(b *testing.B, name, mode string) {
	mk := benchWorkloads()[name]
	opts := AllOptimizations()
	b.ResetTimer()
	var steps uint64
	for i := 0; i < b.N; i++ {
		w := mk()
		switch mode {
		case "inline":
			steps += runOntracInline(b, w, opts)
		case "record":
			steps += runOntracRecordOnly(b, w)
		case "offloaded":
			steps += runOntracOffloaded(b, w, opts)
		}
	}
	if el := b.Elapsed().Seconds(); el > 0 {
		b.ReportMetric(float64(steps)/el, "events/s")
	}
}

func BenchmarkOntracPipelineCompressInline(b *testing.B) { benchOntrac(b, "compress", "inline") }
func BenchmarkOntracPipelineCompressRecordOnly(b *testing.B) {
	benchOntrac(b, "compress", "record")
}
func BenchmarkOntracPipelineCompressOffloaded(b *testing.B) {
	benchOntrac(b, "compress", "offloaded")
}
func BenchmarkOntracPipelineMatmulInline(b *testing.B)     { benchOntrac(b, "matmul", "inline") }
func BenchmarkOntracPipelineMatmulRecordOnly(b *testing.B) { benchOntrac(b, "matmul", "record") }
func BenchmarkOntracPipelineMatmulOffloaded(b *testing.B)  { benchOntrac(b, "matmul", "offloaded") }
func BenchmarkOntracPipelinePsumInline(b *testing.B)       { benchOntrac(b, "psum", "inline") }
func BenchmarkOntracPipelinePsumRecordOnly(b *testing.B)   { benchOntrac(b, "psum", "record") }
func BenchmarkOntracPipelinePsumOffloaded(b *testing.B)    { benchOntrac(b, "psum", "offloaded") }

// --- BENCH_ontrac.json ---------------------------------------------

type ontracBenchStage struct {
	WallS        float64 `json:"wall_s"`
	EventsPerSec float64 `json:"events_per_sec"`
}

type ontracBenchOffloaded struct {
	// Stage walls measured separately on an offline trace; the
	// concurrent end-to-end wall alongside.
	RecordS      float64 `json:"record_s"`
	TraceS       float64 `json:"trace_s"`
	ConcurrentS  float64 `json:"concurrent_s"`
	EventsPerSec float64 `json:"events_per_sec"` // events / max(record, trace)
}

type ontracBenchRow struct {
	Workload   string               `json:"workload"`
	Events     uint64               `json:"events"`
	NativeS    float64              `json:"native_s"`
	BytesInstr float64              `json:"bytes_per_instr"`
	Inline     ontracBenchStage     `json:"inline"`
	RecordOnly ontracBenchStage     `json:"record_only"`
	Offloaded  ontracBenchOffloaded `json:"offloaded"`
}

type ontracBenchReport struct {
	GoMaxProcs int              `json:"gomaxprocs"`
	Host       benchfp.Host     `json:"host"`
	Note       string           `json:"note"`
	Results    []ontracBenchRow `json:"results"`
}

func bestOf(reps int, f func()) float64 {
	best := 0.0
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		f()
		if s := time.Since(t0).Seconds(); i == 0 || s < best {
			best = s
		}
	}
	return best
}

// TestWriteBenchOntracJSON generates BENCH_ontrac.json:
//
//	ONTRAC_BENCH_JSON=1 go test -run TestWriteBenchOntracJSON ./internal/ontrac/
func TestWriteBenchOntracJSON(t *testing.T) {
	if os.Getenv("ONTRAC_BENCH_JSON") == "" {
		t.Skip("set ONTRAC_BENCH_JSON=1 to generate BENCH_ontrac.json")
	}
	const reps = 3
	opts := AllOptimizations()
	report := ontracBenchReport{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Host:       benchfp.Current(),
		Note: "events = VM instructions executed. record_only is the execution-thread cost of " +
			"the offloaded design (batching recorder, ddg.TraceRelevant filter); inline carries " +
			"the full ONTRAC extractor on the execution thread. Offloaded runs the same tracer on " +
			"one helper goroutine: trace_s is that stage alone on an offline trace, " +
			"events_per_sec the sustained throughput events/max(record_s, trace_s), and " +
			"concurrent_s the end-to-end wall of the live pipeline on this host.",
	}
	for _, name := range []string{"compress", "matmul", "psum"} {
		mk := benchWorkloads()[name]
		var steps uint64
		nativeS := bestOf(reps, func() {
			w := mk()
			m := w.NewMachine()
			if res := m.Run(); res.Failed {
				t.Fatal(res.FailMsg)
			}
			steps = m.Steps()
		})
		inlineS := bestOf(reps, func() { runOntracInline(t, mk(), opts) })
		recordS := bestOf(reps, func() { runOntracRecordOnly(t, mk()) })

		// Bytes/instr from one inline run (identical offloaded, pinned
		// by the differential suite).
		trw := mk()
		trm := trw.NewMachine()
		tr := New(trw.Prog, opts)
		trm.AttachTool(tr.Tool())
		if res := trm.Run(); res.Failed {
			t.Fatal(res.FailMsg)
		}

		// One offline trace, reused across trace-stage reps.
		wTrace := mk()
		mTrace := wTrace.NewMachine()
		trace, res := pipeline.CollectWith(mTrace, vm.DefaultBatchEvents, ddg.TraceRelevant)
		if res.Failed {
			t.Fatal(res.FailMsg)
		}

		row := ontracBenchRow{
			Workload: name, Events: steps, NativeS: nativeS,
			BytesInstr: tr.Stats().BytesPerInstr(),
			Inline:     ontracBenchStage{WallS: inlineS, EventsPerSec: float64(steps) / inlineS},
			RecordOnly: ontracBenchStage{WallS: recordS, EventsPerSec: float64(steps) / recordS},
		}
		traceS := bestOf(reps, func() {
			off := NewOffloaded(wTrace.Prog, opts, pipeline.Options{})
			off.Consume(trace)
			off.Close()
		})
		concurrentS := bestOf(reps, func() { runOntracOffloaded(t, mk(), opts) })
		row.Offloaded = ontracBenchOffloaded{
			RecordS: recordS, TraceS: traceS, ConcurrentS: concurrentS,
			EventsPerSec: float64(steps) / max(recordS, traceS),
		}
		report.Results = append(report.Results, row)
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("../../BENCH_ontrac.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, r := range report.Results {
		if r.RecordOnly.EventsPerSec <= r.Inline.EventsPerSec {
			t.Errorf("%s: record-only (%.0f ev/s) did not beat inline tracing (%.0f ev/s)",
				r.Workload, r.RecordOnly.EventsPerSec, r.Inline.EventsPerSec)
		}
		fmt.Printf("%s: native %.3fs, inline %.0f ev/s, record-only %.0f ev/s, offloaded sustained %.0f ev/s, %.2f bytes/instr\n",
			r.Workload, r.NativeS, r.Inline.EventsPerSec, r.RecordOnly.EventsPerSec,
			r.Offloaded.EventsPerSec, r.BytesInstr)
	}
}
