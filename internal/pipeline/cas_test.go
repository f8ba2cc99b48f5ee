package pipeline

import (
	"fmt"
	"testing"

	"scaldift/internal/bdd"
	"scaldift/internal/dift"
	"scaldift/internal/isa"
	"scaldift/internal/lineage"
	"scaldift/internal/vm"
)

// Regression tests for the two CAS label bugs once fixed in the
// engine's transfer function, pinned inline and offloaded and under
// all three label domains. The differential suite alone could never
// catch them: both sides run the same engine, so they diverge from
// the truth identically.
//
//   Bug 1 (aliasing): with Rd == Rs2 the swapped cell used to take
//   the expected-value register's POST-update label — the old memory
//   value's label that had just landed in Rd.
//   Bug 2 (const store): a successful CAS stores the constant Imm
//   (vm/exec.go), yet the cell was labeled from Rs2 — over-tainting a
//   constant store.
//
// The "clearOnConst" subtests run the aliasing programs below. The
// "sticky" subtests run a tainted expected-value register over a clean
// cell — the label a sticky-constant rule would carry into the
// swapped cell — and pin that the cell does not take it.

// casSuccessAlias succeeds with Rd == Rs2: r2 is the clean expected
// value, mem[0] holds a tainted 5. After the CAS, Rd must carry the
// old (tainted) value's label and the cell must be CLEAN, because the
// stored 9 is a constant.
const casSuccessAlias = `
.data 0
    in r3, 0            ; tainted input, value 5
    store r0, r3, 0     ; mem[0] = 5, tainted
    movi r2, 5          ; clean expected value
    cas r2, r0, r2, 9   ; Rd == Rs2, succeeds: mem[0] = 9
    halt
`

// casFailureAlias fails with Rd == Rs2: the expected value 6 cannot
// match the tainted 5 in mem[0]. Rd still reads memory (tainted), the
// cell label is untouched (tainted).
const casFailureAlias = `
.data 0
    in r3, 0            ; tainted input, value 5
    store r0, r3, 0     ; mem[0] = 5, tainted
    movi r2, 6          ; clean expected value, cannot match
    cas r2, r0, r2, 9   ; Rd == Rs2, fails
    halt
`

// casSuccessStickyGate succeeds with Rd == Rs2 and a tainted expected
// value over a clean cell. Rd joins the gate and the old value, so it
// is tainted; the cell stores the constant 9 and must stay CLEAN.
const casSuccessStickyGate = `
.data 0
    movi r3, 5
    store r0, r3, 0     ; mem[0] = 5, clean
    in r2, 0            ; tainted expected value, 5
    cas r2, r0, r2, 9   ; Rd == Rs2, succeeds: mem[0] = 9
    halt
`

// casFailureStickyGate fails with Rd == Rs2 and a tainted expected
// value over a clean cell: Rd is tainted by the gate, and the cell,
// never written, stays CLEAN.
const casFailureStickyGate = `
.data 0
    movi r3, 5
    store r0, r3, 0     ; mem[0] = 5, clean
    in r2, 0            ; tainted input, value 5
    addi r2, r2, 1      ; tainted expected value 6, cannot match
    cas r2, r0, r2, 9   ; Rd == Rs2, fails
    halt
`

// casBoth runs text under the inline engine and the pipeline with the
// same domain and returns both for label comparison.
func casBoth[L comparable](t *testing.T, text string, dom, pdom dift.Domain[L]) (*dift.Engine[L], *Pipeline[L], *vm.Machine) {
	t.Helper()
	p, err := isa.Assemble("t", text)
	if err != nil {
		t.Fatal(err)
	}
	mi := vm.MustNew(p, vm.Config{})
	mi.SetInput(0, []int64{5})
	eng := dift.NewEngine[L](dom, dift.DefaultPolicy())
	mi.AttachTool(eng)
	if res := mi.Run(); res.Failed {
		t.Fatalf("inline run failed: %s", res.FailMsg)
	}

	mp := vm.MustNew(p, vm.Config{})
	mp.SetInput(0, []int64{5})
	pl := New[L](pdom, dift.DefaultPolicy(), Options{BatchEvents: 4})
	if res := Run(mp, pl); res.Failed {
		t.Fatalf("pipeline run failed: %s", res.FailMsg)
	}
	return eng, pl, mi
}

// checkCas asserts the Rd (r2) and mem[0] labels are (un)tainted as
// expected, identically under both engines.
func checkCas[L comparable](t *testing.T, eng *dift.Engine[L], pl *Pipeline[L], wantRegTaint, wantMemTaint bool) {
	t.Helper()
	var zero L
	if got := eng.RegTaint(0, 2) != zero; got != wantRegTaint {
		t.Errorf("inline Rd taint = %v, want %v", got, wantRegTaint)
	}
	if got := eng.MemTaint(0) != zero; got != wantMemTaint {
		t.Errorf("inline mem[0] taint = %v, want %v", got, wantMemTaint)
	}
	if got := pl.RegTaint(0, 2) != zero; got != wantRegTaint {
		t.Errorf("pipeline Rd taint = %v, want %v", got, wantRegTaint)
	}
	if got := pl.MemTaint(0) != zero; got != wantMemTaint {
		t.Errorf("pipeline mem[0] taint = %v, want %v", got, wantMemTaint)
	}
}

func TestCasRdRs2AliasingComparableDomains(t *testing.T) {
	cases := []struct {
		name     string
		text     string
		wantMem  int64 // machine value of mem[0] after the run
		memTaint bool
	}{
		// Success: cell stores the constant 9 and must end up clean —
		// the buggy rule tainted it from post-update Rs2.
		{"success/clearOnConst", casSuccessAlias, 9, false},
		{"success/sticky", casSuccessStickyGate, 9, false},
		// Failure: no write, the cell's label untouched.
		{"failure/clearOnConst", casFailureAlias, 5, true},
		{"failure/sticky", casFailureStickyGate, 5, false},
	}
	for _, tc := range cases {
		t.Run("bool/"+tc.name, func(t *testing.T) {
			eng, pl, m := casBoth[bool](t, tc.text, dift.Bool{}, dift.Bool{})
			if m.Mem[0] != tc.wantMem {
				t.Fatalf("mem[0] = %d, want %d", m.Mem[0], tc.wantMem)
			}
			checkCas(t, eng, pl, true, tc.memTaint)
		})
		t.Run("pc/"+tc.name, func(t *testing.T) {
			eng, pl, _ := casBoth[dift.PCLabel](t, tc.text, dift.PC{}, dift.PC{})
			checkCas(t, eng, pl, true, tc.memTaint)
			if eng.MemTaint(0) != pl.MemTaint(0) {
				t.Fatalf("PC labels diverged: inline %d, pipeline %d", eng.MemTaint(0), pl.MemTaint(0))
			}
		})
	}
}

func TestCasRdRs2AliasingLineage(t *testing.T) {
	cases := []struct {
		name     string
		text     string
		memTaint bool
	}{
		{"success/clearOnConst", casSuccessAlias, false},
		{"success/sticky", casSuccessStickyGate, false},
		{"failure/clearOnConst", casFailureAlias, true},
		{"failure/sticky", casFailureStickyGate, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			di := lineage.NewDomain(8)
			dp := lineage.NewDomain(8)
			eng, pl, _ := casBoth[bdd.Ref](t, tc.text, di, dp)
			checkCas(t, eng, pl, true, tc.memTaint)
			// Lineage refs live in separate managers; compare the
			// denoted element sets.
			ei := di.Manager().Elements(eng.MemTaint(0), nil)
			ep := dp.Manager().Elements(pl.MemTaint(0), nil)
			if fmt.Sprint(ei) != fmt.Sprint(ep) {
				t.Fatalf("mem[0] lineage diverged: inline %v, pipeline %v", ei, ep)
			}
		})
	}
}
