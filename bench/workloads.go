package main

import (
	"scaldift/internal/ontrac"
	"scaldift/internal/prog"
)

// queryMix is the share of each request kind in the serve phase. The
// shares of one mix sum to 1.
type queryMix struct {
	backward   float64 // bounded backward slice from a fresh criterion
	forward    float64 // bounded forward slice (slicing.ParallelForward)
	provenance float64 // backward data slice reported as input statements
	hot        float64 // repeat of one of hotSetSize fixed backward queries
	allThreads bool    // draw criteria from every thread, not just thread 0
}

// hotSetSize is the number of fixed queries the hot share cycles
// through: small enough to stay inside the server's 256-entry result
// cache, so every repeat after the first is a cache hit.
const hotSetSize = 16

// serveMaxNodes bounds every query of the timed mix. Whole-execution
// slices cost seconds at this scale, so an unbounded request would
// turn the latency metrics into a measure of one slice's depth.
const serveMaxNodes = 4000

// firstAnswerMaxNodes bounds the one fixed slice of the first-answer
// step.
const firstAnswerMaxNodes = 200000

// workloadDef is one benchmark workload: a program, the DIFT domain
// the track step propagates, the ONTRAC options the trace step
// records with, and the query mix the serve step sends.
type workloadDef struct {
	name string
	why  string
	// build makes the program and its inputs for a seed at a scale
	// (1 = the reported scale, quickScale for the smoke test).
	build   func(scale float64, seed uint64) *prog.Workload
	lineage bool // track domain: lineage sets (else dift.Bool)
	trace   ontrac.Options
	mix     queryMix
}

// scaled shrinks a size parameter, never below floor.
func scaled(n int, scale float64, floor int) int {
	v := int(float64(n) * scale)
	if v < floor {
		return floor
	}
	return v
}

// workloads lists the four workloads in reporting order. One run of
// a program is 0.1–0.3 M instructions: a few milliseconds natively,
// tens under analysis. Short runs are deliberate. On a shared host a
// core slows down by up to 2x for a fraction of a second at a time; a
// repetition that lasts seconds averages those stretches in, so its
// wall follows the host's mood, while the median of fifty short
// repetitions spread over the run ignores them as long as they cover
// under half of it. At four times this size the same metrics spread
// two to four times wider from run to run (bench/README.md).
func workloads() []*workloadDef {
	return []*workloadDef{
		{
			name: "stream-lineage",
			why: "Analyze-bound: lineage-set propagation dominates and every window is single-chain, " +
				"so dift/bdd/lineage/shadow do the work and the worker pool and conflict learner do none.",
			build: func(s float64, seed uint64) *prog.Workload {
				return prog.StreamAgg(scaled(9000, s, 64), 4, seed)
			},
			lineage: true,
			trace:   ontrac.StaticOptions(),
			mix:     queryMix{backward: 1},
		},
		{
			name: "mapreduce-par",
			why: "Concurrent windows: pipeline conflict analysis, learner, shadow.Epoch ownership and pool " +
				"dispatch run here and not in stream-lineage; cross-thread edges make the parallel slicers hand off.",
			build: func(s float64, seed uint64) *prog.Workload {
				w := prog.MapReduceSquares(4, scaled(18000, s, 256), seed)
				w.Cfg.Seed = seed
				return w
			},
			lineage: true,
			trace:   ontrac.Unoptimized(),
			mix:     queryMix{backward: 1, allThreads: true},
		},
		{
			name: "compress-taint",
			why: "Record-bound: bool propagation is nearly free, so vm.Recorder, batch hand-off and queue " +
				"backpressure set track_*; single-thread ONTRAC extraction and elision set trace_*.",
			build: func(s float64, seed uint64) *prog.Workload {
				return prog.Compress(scaled(40000, s, 512), seed)
			},
			trace: ontrac.StaticOptions(),
			mix:   queryMix{backward: 1},
		},
		{
			name: "psum-query",
			why: "Read-bound: cheap to record, an unoptimized trace far larger than the reader's chunk cache; " +
				"forward beside backward and cached beside uncached queries show a gain for one use that costs another.",
			build: func(s float64, seed uint64) *prog.Workload {
				w := prog.PSum(4, scaled(8000, s, 256), seed)
				w.Cfg.Seed = seed
				return w
			},
			trace: ontrac.Unoptimized(),
			mix:   queryMix{backward: 0.55, forward: 0.10, provenance: 0.15, hot: 0.20, allThreads: true},
		},
	}
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}
