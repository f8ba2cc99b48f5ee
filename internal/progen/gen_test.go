package progen

import (
	"reflect"
	"testing"

	"scaldift/internal/isa"
)

// Same seed ⇒ byte-identical program, inputs, and parameters: the
// whole Generated must be reproducible from its seed alone.
func TestGeneratorDeterminism(t *testing.T) {
	cfg := DefaultGenConfig()
	for seed := uint64(0); seed < 50; seed++ {
		a := Generate(seed, cfg)
		b := Generate(seed, cfg)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two generations diverged:\n%s\nvs\n%s",
				seed, a.Prog.Disassemble(), b.Prog.Disassemble())
		}
	}
}

// Every generated program is structurally valid, and the generator's
// static accounting is self-consistent: the promised input supply and
// step bound must cover the actual oracle run.
func TestGeneratorWellFormed(t *testing.T) {
	cfg := DefaultGenConfig()
	for seed := uint64(0); seed < 200; seed++ {
		g := Generate(seed, cfg)
		if err := g.Prog.Validate(); err != nil {
			t.Fatalf("seed %d: invalid program: %v", seed, err)
		}
		if g.WorstSteps <= 0 {
			t.Fatalf("seed %d: nonpositive worst-case step count %d", seed, g.WorstSteps)
		}
		run := RunOracle(g.Prog, g.Inputs, g.Par)
		if run.Failed || run.Reason != StopHalted {
			t.Fatalf("seed %d: oracle run stopped with %q (pc %d: %s):\n%s",
				seed, run.Reason, run.FailPC, run.FailMsg, g.Prog.Disassemble())
		}
		if run.Steps > uint64(g.WorstSteps) {
			t.Fatalf("seed %d: actual steps %d exceed the static worst case %d",
				seed, run.Steps, g.WorstSteps)
		}
		if run.InputsConsumed > len(g.Inputs[ChIn]) {
			t.Fatalf("seed %d: consumed %d inputs of a supply of %d",
				seed, run.InputsConsumed, len(g.Inputs[ChIn]))
		}
	}
}

// Generated programs must spread over the interesting structure: the
// corpus as a whole has to exercise threads, loops, locks, CAS, and
// input reads, or the differential harness is testing straight-line
// arithmetic 500 times.
func TestGeneratorCoversFeatures(t *testing.T) {
	cfg := DefaultGenConfig()
	seen := map[isa.Op]bool{}
	multi := 0
	indirect := map[isa.Op]int{} // programs using each indirect branch
	for seed := uint64(0); seed < 100; seed++ {
		g := Generate(seed, cfg)
		spawns := false
		used := map[isa.Op]bool{}
		for _, ins := range g.Prog.Instrs {
			seen[ins.Op] = true
			used[ins.Op] = true
			spawns = spawns || ins.Op == isa.SPAWN
		}
		if spawns {
			multi++
		}
		for _, op := range []isa.Op{isa.BRR, isa.CALLR} {
			if used[op] {
				indirect[op]++
			}
		}
	}
	for _, op := range []isa.Op{isa.IN, isa.OUT, isa.SPAWN, isa.JOIN, isa.LOCK,
		isa.UNLOCK, isa.BARRIER, isa.CAS, isa.LOAD, isa.STORE, isa.DIV,
		isa.CALL, isa.RET, isa.ALLOC} {
		if !seen[op] {
			t.Errorf("no generated program in 100 seeds used %v", op)
		}
	}
	if multi < 30 {
		t.Errorf("only %d/100 seeds were multithreaded", multi)
	}
	// The indirect-branch sink is compared record by record against
	// the oracle, so a share of the corpus must reach it.
	for _, op := range []isa.Op{isa.BRR, isa.CALLR} {
		if indirect[op] < 20 {
			t.Errorf("only %d/100 seeds used %v", indirect[op], op)
		}
	}
}
