// Package progen is the generative correctness backstop for every
// analysis engine in the repository: a seeded generator of random
// well-formed ISA programs, a brute-force oracle that recomputes
// taint, lineage, and slices from first principles against
// internal/isa alone, and a Scenario harness that runs one generated
// program through the inline engine, the batched pipeline, offloaded
// ONTRAC, a spilled-and-reopened store.Reader, and the HTTP query
// service, asserting every result identical to the oracle.
//
// The three parts are deliberately decoupled: the generator and the
// oracle import only internal/isa (plus stdlib), so a bug in the VM,
// the shadow machinery, the trace encoding, or the query service
// cannot leak into the ground truth they define. The harness
// (scenario.go) is the only file that touches the engines under test.
package progen

import "scaldift/internal/isa"

// Input/output channel conventions, matching internal/prog.
const (
	ChIn  = 0 // input channel
	ChOut = 1 // output channel
)

// Params mirrors the subset of vm.Config that affects execution, so
// the oracle — which must not import internal/vm — can replicate a
// run exactly. The zero value of each field selects the same default
// the VM uses.
type Params struct {
	MemWords      int    // memory size in words (default 1<<20)
	StackWords    int    // per-thread stack reservation (default 4096)
	MaxThreads    int    // thread limit (default 16)
	Quantum       int    // scheduler quantum (default 50)
	Seed          uint64 // scheduler PRNG seed
	MaxSteps      uint64 // runaway bound (default 200_000_000)
	RandomPreempt bool   // pseudo-random quantum lengths in [1,Quantum]
}

func (p *Params) fill() {
	if p.MemWords == 0 {
		p.MemWords = 1 << 20
	}
	if p.StackWords == 0 {
		p.StackWords = 4096
	}
	if p.MaxThreads == 0 {
		p.MaxThreads = 16
	}
	if p.Quantum == 0 {
		p.Quantum = 50
	}
	if p.MaxSteps == 0 {
		p.MaxSteps = 200_000_000
	}
}

// Generated is one generator output: a validated program plus the
// inputs and machine parameters it is meant to run under.
type Generated struct {
	Seed   uint64
	Prog   *isa.Program
	Inputs map[int][]int64
	Par    Params
	// WorstSteps is the static worst-case dynamic instruction count
	// (every loop at full trip count, both branch arms summed); the
	// actual run is guaranteed to stay at or below it.
	//scaldift:ignore deadexport test support: TestGeneratorWellFormed holds every oracle run to this bound
	WorstSteps int64
}

// rng is the generator's own splitmix64 PRNG. It intentionally has
// the same shape as the VM's scheduler PRNG (plain uint64 state) but
// is a distinct stream: generation choices and scheduling choices
// never share state.
type rng struct{ state uint64 }

func newRng(seed uint64) *rng {
	return &rng{state: seed ^ 0xd1b54a32d192ed03}
}

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a pseudo-random int in [0,n).
func (r *rng) intn(n int) int {
	if n <= 1 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// coin returns true with probability num/den.
func (r *rng) coin(num, den int) bool { return r.intn(den) < num }
