package vm

import (
	"testing"

	"scaldift/internal/isa"
)

func run(t *testing.T, text string, cfg Config, inputs map[int][]int64) (*Machine, *Result) {
	t.Helper()
	p, err := isa.Assemble("t", text)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for ch, words := range inputs {
		m.SetInput(ch, words)
	}
	return m, m.Run()
}

func TestRunSum(t *testing.T) {
	m, res := run(t, `
    in r1, 0
    movi r2, 0
    movi r3, 0
loop:
    bge r3, r1, done
    in r4, 0
    add r2, r2, r4
    addi r3, r3, 1
    br loop
done:
    out r2, 1
    halt
`, Config{}, map[int][]int64{0: {3, 10, 20, 30}})
	if res.Reason != StopAllHalted {
		t.Fatalf("reason = %v (%s)", res.Reason, res.FailMsg)
	}
	if out := m.Output(1); len(out) != 1 || out[0] != 60 {
		t.Fatalf("output = %v", out)
	}
	if res.Steps == 0 || m.Steps() != res.Steps {
		t.Fatalf("steps = %d", res.Steps)
	}
}

func TestALUOps(t *testing.T) {
	m, res := run(t, `
    movi r1, 7
    movi r2, 3
    add r3, r1, r2
    out r3, 0
    sub r3, r1, r2
    out r3, 0
    mul r3, r1, r2
    out r3, 0
    div r3, r1, r2
    out r3, 0
    mod r3, r1, r2
    out r3, 0
    and r3, r1, r2
    out r3, 0
    or r3, r1, r2
    out r3, 0
    xor r3, r1, r2
    out r3, 0
    shl r3, r1, r2
    out r3, 0
    shr r3, r1, r2
    out r3, 0
    cmplt r3, r2, r1
    out r3, 0
    cmpge r3, r2, r1
    out r3, 0
    addi r3, r1, 100
    out r3, 0
    muli r3, r1, -2
    out r3, 0
    andi r3, r1, 6
    out r3, 0
    halt
`, Config{}, nil)
	want := []int64{10, 4, 21, 2, 1, 3, 7, 4, 56, 0, 1, 0, 107, -14, 6}
	got := m.Output(0)
	if res.Failed || len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("out[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestDivByZeroFaults(t *testing.T) {
	_, res := run(t, `
    movi r1, 1
    movi r2, 0
    div r3, r1, r2
    halt
`, Config{}, nil)
	if !res.Failed || res.Reason != StopFailed {
		t.Fatalf("expected failure, got %+v", res)
	}
	if res.FailPC != 2 {
		t.Fatalf("FailPC = %d", res.FailPC)
	}
}

func TestMemoryAndData(t *testing.T) {
	m, res := run(t, `
.data 5, 6, 7
    movi r1, 0
    load r2, r1, 1   ; r2 = Mem[1] = 6
    movi r3, 100
    store r1, r3, 2  ; Mem[2] = 100
    load r4, r1, 2
    out r2, 0
    out r4, 0
    halt
`, Config{}, nil)
	if res.Failed {
		t.Fatal(res.FailMsg)
	}
	if out := m.Output(0); out[0] != 6 || out[1] != 100 {
		t.Fatalf("out = %v", out)
	}
}

func TestInvalidLoadFaults(t *testing.T) {
	_, res := run(t, `
    movi r1, -5
    load r2, r1, 0
    halt
`, Config{}, nil)
	if !res.Failed {
		t.Fatal("expected fault")
	}
}

func TestAllocBump(t *testing.T) {
	m, res := run(t, `
.data 1, 2, 3, 4
    movi r1, 10
    alloc r2, r1
    alloc r3, r1
    sub r4, r3, r2
    out r2, 0
    out r4, 0
    halt
`, Config{}, nil)
	if res.Failed {
		t.Fatal(res.FailMsg)
	}
	out := m.Output(0)
	if out[0] != 4 { // heap starts after the 4-word data segment
		t.Fatalf("first alloc at %d, want 4", out[0])
	}
	if out[1] != 10 {
		t.Fatalf("alloc spacing = %d, want 10", out[1])
	}
}

func TestCallRet(t *testing.T) {
	m, res := run(t, `
    br main
.func double
    add r2, r1, r1
    ret
.endfunc
main:
    movi r1, 21
    call double
    out r2, 0
    halt
`, Config{}, nil)
	if res.Failed {
		t.Fatal(res.FailMsg)
	}
	if out := m.Output(0); out[0] != 42 {
		t.Fatalf("out = %v", out)
	}
}

func TestRetWithoutCallFaults(t *testing.T) {
	_, res := run(t, "ret\nhalt", Config{}, nil)
	if !res.Failed {
		t.Fatal("expected fault")
	}
}

func TestAssertAndFail(t *testing.T) {
	_, res := run(t, `
    movi r1, 0
    assert r1
    halt
`, Config{}, nil)
	if !res.Failed || res.FailPC != 1 {
		t.Fatalf("res = %+v", res)
	}
	_, res = run(t, "fail", Config{}, nil)
	if !res.Failed {
		t.Fatal("FAIL should fail the run")
	}
	_, res = run(t, `
    movi r1, 5
    assert r1
    halt
`, Config{}, nil)
	if res.Failed {
		t.Fatal("assert on nonzero should pass")
	}
}

func TestInputBlockingAndAppend(t *testing.T) {
	p := isa.MustAssemble("t", `
    in r1, 0
    out r1, 1
    halt
`)
	m := MustNew(p, Config{})
	res := m.Run()
	if res.Reason != StopDeadlock {
		t.Fatalf("expected input-starved deadlock, got %v", res.Reason)
	}
	m.SetInput(0, []int64{77})
	res = m.Run()
	if res.Reason != StopAllHalted {
		t.Fatalf("after append: %v", res.Reason)
	}
	if out := m.Output(1); out[0] != 77 {
		t.Fatalf("out = %v", out)
	}
}

func TestInAvail(t *testing.T) {
	m, res := run(t, `
loop:
    inavail r1, 0
    beqz r1, done
    in r2, 0
    out r2, 1
    br loop
done:
    halt
`, Config{}, map[int][]int64{0: {1, 2, 3}})
	if res.Failed || res.Reason != StopAllHalted {
		t.Fatalf("res = %+v", res)
	}
	if out := m.Output(1); len(out) != 3 || out[2] != 3 {
		t.Fatalf("out = %v", out)
	}
}

const spawnSumProg = `
.data 0, 0, 0, 0       ; results at 0..3
    movi r10, 0
    spawn r20, r10, worker
    movi r10, 1
    spawn r21, r10, worker
    join r20
    join r21
    load r1, r0, 0
    load r2, r0, 1
    add r3, r1, r2
    out r3, 0
    halt
worker:
    ; arg in r1: slot index; compute (slot+1)*100
    addi r2, r1, 1
    muli r2, r2, 100
    store r1, r2, 0
    halt
`

func TestSpawnJoin(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		m, res := run(t, spawnSumProg, Config{Seed: seed, Quantum: 3}, nil)
		if res.Failed {
			t.Fatal(res.FailMsg)
		}
		if out := m.Output(0); len(out) != 1 || out[0] != 300 {
			t.Fatalf("seed %d: out = %v", seed, out)
		}
	}
}

const lockProg = `
.data 0, 0            ; lock at 0, counter at 1
    movi r10, 0
    spawn r20, r10, worker
    spawn r21, r10, worker
    join r20
    join r21
    load r1, r0, 1
    out r1, 0
    halt
worker:
    movi r3, 0
wloop:
    lock r0, 0
    load r4, r0, 1
    addi r4, r4, 1
    store r0, r4, 1
    unlock r0, 0
    addi r3, r3, 1
    movi r5, 50
    blt r3, r5, wloop
    halt
`

func TestLockMutualExclusion(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		m, res := run(t, lockProg, Config{Seed: seed, Quantum: 2, RandomPreempt: true}, nil)
		if res.Failed {
			t.Fatalf("seed %d: %s", seed, res.FailMsg)
		}
		if out := m.Output(0); out[0] != 100 {
			t.Fatalf("seed %d: counter = %v, want 100", seed, out)
		}
	}
}

func TestUnlockNotHeldFaults(t *testing.T) {
	_, res := run(t, `
.data 0
    unlock r0, 0
    halt
`, Config{}, nil)
	if !res.Failed {
		t.Fatal("expected fault")
	}
}

const barrierProg = `
.data 0, 0, 0, 0, 0    ; barrier at 0..1, slots at 2..4
    movi r10, 0
    spawn r20, r10, worker
    movi r10, 1
    spawn r21, r10, worker
    movi r10, 2
    movi r1, 2
    mov r1, r10
    call work
    join r20
    join r21
    load r1, r0, 2
    load r2, r0, 3
    load r3, r0, 4
    add r1, r1, r2
    add r1, r1, r3
    out r1, 0
    halt
worker:
    call work
    halt
.func work
    ; phase 1: write slot
    addi r4, r1, 2
    movi r5, 1
    store r4, r5, 0
    ; all must arrive before phase 2
    movi r6, 3
    barrier r0, r6, 0
    ; phase 2: read all slots; every slot must be written
    load r7, r0, 2
    load r8, r0, 3
    add r7, r7, r8
    load r8, r0, 4
    add r7, r7, r8
    movi r8, 3
    beq r7, r8, okw
    fail
okw:
    ret
.endfunc
`

func TestBarrierPhases(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		m, res := run(t, barrierProg, Config{Seed: seed, Quantum: 2, RandomPreempt: true}, nil)
		if res.Failed {
			t.Fatalf("seed %d: barrier violated: %s", seed, res.FailMsg)
		}
		if out := m.Output(0); out[0] != 3 {
			t.Fatalf("seed %d: out = %v", seed, out)
		}
	}
}

const flagProg = `
.data 0, 0            ; flag at 0, value at 1
    movi r10, 0
    spawn r20, r10, producer
    flagwt r0, 0
    load r1, r0, 1
    out r1, 0
    join r20
    halt
producer:
    movi r2, 123
    store r0, r2, 1
    flagset r0, 0
    halt
`

func TestFlagSync(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		m, res := run(t, flagProg, Config{Seed: seed, Quantum: 1}, nil)
		if res.Failed {
			t.Fatalf("seed %d: %s", seed, res.FailMsg)
		}
		if out := m.Output(0); out[0] != 123 {
			t.Fatalf("seed %d: out = %v (flag sync broken)", seed, out)
		}
	}
}

func TestCAS(t *testing.T) {
	m, res := run(t, `
.data 5
    movi r1, 0       ; addr
    movi r2, 5       ; expected
    cas r3, r1, r2, 9
    out r3, 0        ; old value 5
    load r4, r1, 0
    out r4, 0        ; now 9
    movi r2, 5
    cas r3, r1, r2, 11
    out r3, 0        ; old value 9, no swap
    load r4, r1, 0
    out r4, 0        ; still 9
    halt
`, Config{}, nil)
	if res.Failed {
		t.Fatal(res.FailMsg)
	}
	got := m.Output(0)
	want := []int64{5, 9, 9, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("out = %v, want %v", got, want)
		}
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	outs := func(seed uint64) []SchedSlice {
		p := isa.MustAssemble("t", lockProg)
		m := MustNew(p, Config{Seed: seed, Quantum: 3, RandomPreempt: true, RecordSchedule: true})
		m.Run()
		return m.Schedule()
	}
	a, b := outs(42), outs(42)
	if len(a) != len(b) {
		t.Fatalf("schedule lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := outs(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules (suspicious)")
	}
}

func TestForceScheduleReplay(t *testing.T) {
	p := isa.MustAssemble("t", lockProg)
	m1 := MustNew(p, Config{Seed: 7, Quantum: 2, RandomPreempt: true, RecordSchedule: true})
	res1 := m1.Run()
	if res1.Failed {
		t.Fatal(res1.FailMsg)
	}
	sched := m1.Schedule()

	m2 := MustNew(p, Config{Seed: 999, ForceSchedule: sched, RecordSchedule: true})
	res2 := m2.Run()
	if res2.Failed {
		t.Fatal(res2.FailMsg)
	}
	if res1.Steps != res2.Steps {
		t.Fatalf("replay steps %d != original %d", res2.Steps, res1.Steps)
	}
	s2 := m2.Schedule()
	if len(s2) != len(sched) {
		t.Fatalf("replay schedule length %d != %d", len(s2), len(sched))
	}
	for i := range sched {
		if sched[i] != s2[i] {
			t.Fatalf("replay diverged at slice %d: %v vs %v", i, sched[i], s2[i])
		}
	}
}

func TestSnapshotRestore(t *testing.T) {
	p := isa.MustAssemble("t", `
    in r1, 0
    out r1, 1
    in r1, 0
    out r1, 1
    halt
`)
	m := MustNew(p, Config{})
	m.SetInput(0, []int64{10, 20})
	// Execute first in+out.
	for i := 0; i < 2; i++ {
		m.Step()
	}
	snap := m.Snapshot()
	res := m.Run()
	if res.Reason != StopAllHalted {
		t.Fatalf("run: %v", res.Reason)
	}
	if out := m.Output(1); len(out) != 2 || out[1] != 20 {
		t.Fatalf("out = %v", out)
	}
	m.Restore(snap)
	if out := m.Output(1); len(out) != 1 {
		t.Fatalf("restored out = %v", out)
	}
	res = m.Run()
	if res.Reason != StopAllHalted {
		t.Fatalf("rerun: %v", res.Reason)
	}
	if out := m.Output(1); len(out) != 2 || out[0] != 10 || out[1] != 20 {
		t.Fatalf("rerun out = %v", out)
	}
}

func TestSnapshotRestoreMidThreaded(t *testing.T) {
	p := isa.MustAssemble("t", lockProg)
	m := MustNew(p, Config{Seed: 5, Quantum: 2, RandomPreempt: true})
	for i := 0; i < 200; i++ {
		if !m.Step() {
			t.Fatal("stopped early")
		}
	}
	snap := m.Snapshot()
	res1 := m.Run()
	out1 := append([]int64(nil), m.Output(0)...)
	m.Restore(snap)
	res2 := m.Run()
	out2 := m.Output(0)
	if res1.Steps != res2.Steps {
		t.Fatalf("steps differ after restore: %d vs %d", res1.Steps, res2.Steps)
	}
	if len(out1) != 1 || len(out2) != 1 || out1[0] != out2[0] {
		t.Fatalf("outputs differ: %v vs %v", out1, out2)
	}
	if out1[0] != 100 {
		t.Fatalf("counter = %d, want 100", out1[0])
	}
}

func TestToolSeesDataflow(t *testing.T) {
	p := isa.MustAssemble("t", `
    in r1, 0
    addi r2, r1, 1
    store r0, r2, 0
    load r3, r0, 0
    out r3, 1
    halt
`)
	m := MustNew(p, Config{MemWords: 70000})
	m.SetInput(0, []int64{41})
	var kinds []EventKind
	var loadAddr, storeAddr int64 = -2, -2
	m.AttachTool(ToolFunc(func(_ *Machine, ev *Event) {
		kinds = append(kinds, ev.Kind)
		switch ev.Kind {
		case EvLoad:
			loadAddr = ev.SrcMem
		case EvStore:
			storeAddr = ev.DstMem
		}
	}))
	res := m.Run()
	if res.Failed {
		t.Fatal(res.FailMsg)
	}
	want := []EventKind{EvInput, EvCompute, EvStore, EvLoad, EvOutput, EvHalt}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("kinds = %v, want %v", kinds, want)
		}
	}
	if loadAddr != 0 || storeAddr != 0 {
		t.Fatalf("load/store addr = %d/%d", loadAddr, storeAddr)
	}
}

func TestMaxSteps(t *testing.T) {
	_, res := run(t, "loop: br loop", Config{MaxSteps: 1000}, nil)
	if res.Reason != StopMaxSteps {
		t.Fatalf("reason = %v", res.Reason)
	}
	if res.Steps != 1000 {
		t.Fatalf("steps = %d", res.Steps)
	}
}

func TestThreadLimitFaults(t *testing.T) {
	_, res := run(t, `
    movi r1, 0
loop:
    spawn r2, r1, child
    br loop
child:
    halt
`, Config{MaxThreads: 4}, nil)
	if !res.Failed {
		t.Fatal("expected thread-limit fault")
	}
}

func TestR0Discards(t *testing.T) {
	m, res := run(t, `
    movi r0, 99
    movi r1, 0
    out r0, 0
    out r1, 0
    halt
`, Config{}, nil)
	if res.Failed {
		t.Fatal(res.FailMsg)
	}
	if out := m.Output(0); out[0] != 0 || out[1] != 0 {
		t.Fatalf("r0 not discarded: %v", out)
	}
}
