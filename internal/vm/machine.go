package vm

import (
	"fmt"

	"scaldift/internal/isa"
)

// ThreadState is the scheduling state of a thread.
type ThreadState uint8

// Thread states.
const (
	Runnable ThreadState = iota
	Blocked
	Halted
)

// blockKind says what a blocked thread is waiting for.
type blockKind uint8

const (
	blockNone blockKind = iota
	blockLock
	blockBarrier
	blockFlag
	blockJoin
	blockInput
)

// Thread is one thread of execution.
type Thread struct {
	ID    int
	PC    int
	Regs  [isa.NumRegs]int64
	Calls []int // return-PC stack
	State ThreadState

	// Blocking bookkeeping.
	waitKind blockKind
	waitAddr int64 // lock/flag/barrier address
	waitGen  int64 // barrier generation observed at arrival
	waitTID  int   // join target
	waitCh   int   // input channel

	// Steps is the count of instructions this thread has executed.
	Steps uint64
}

// Config parameterizes a Machine.
type Config struct {
	// MemWords is the memory size in 64-bit words (default 1<<20).
	MemWords int
	// StackWords reserves a stack region per thread slot at the top
	// of memory (default 4096).
	StackWords int
	// MaxThreads bounds concurrently existing threads (default 16).
	MaxThreads int
	// Quantum is instructions per scheduling slice (default 50).
	Quantum int
	// Seed drives the scheduler's PRNG; runs are deterministic for a
	// given seed, schedule and inputs.
	Seed uint64
	// MaxSteps aborts runaway executions (default 200_000_000).
	MaxSteps uint64
	// RecordSchedule keeps the (tid, steps) slice sequence so the run
	// can be replayed exactly; see Machine.Schedule.
	RecordSchedule bool
	// ForceSchedule, when non-nil, drives scheduling from a recorded
	// slice sequence instead of the PRNG (deterministic replay).
	ForceSchedule []SchedSlice
	// RandomPreempt makes quantum lengths vary pseudo-randomly in
	// [1,Quantum], modeling asynchronous preemption. Without it the
	// scheduler is plain round-robin with fixed quanta.
	RandomPreempt bool
}

func (c *Config) fill() {
	if c.MemWords == 0 {
		c.MemWords = 1 << 20
	}
	if c.StackWords == 0 {
		c.StackWords = 4096
	}
	if c.MaxThreads == 0 {
		c.MaxThreads = 16
	}
	if c.Quantum == 0 {
		c.Quantum = 50
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 200_000_000
	}
}

// SchedSlice is one scheduling decision: thread TID ran Steps
// instructions (or fewer if it blocked/halted first — the recorded
// value is the actual count executed).
type SchedSlice struct {
	TID   int
	Steps int
}

// StopReason says why Run returned.
type StopReason uint8

// Stop reasons.
const (
	StopAllHalted StopReason = iota
	StopFailed               // FAIL/ASSERT/fault
	StopDeadlock             // live threads, none runnable
	StopMaxSteps
)

func (r StopReason) String() string {
	switch r {
	case StopAllHalted:
		return "all threads halted"
	case StopFailed:
		return "failed"
	case StopDeadlock:
		return "deadlock"
	case StopMaxSteps:
		return "max steps exceeded"
	}
	return "unknown"
}

// Result summarizes a completed run.
type Result struct {
	Reason  StopReason
	Steps   uint64
	Failed  bool
	FailPC  int //scaldift:ignore deadexport test support: the vm tests assert where a fault stopped the run
	FailMsg string
}

// Machine is a virtual machine instance: one program, shared memory,
// up to MaxThreads threads, attached tools.
type Machine struct {
	Prog *isa.Program
	Cfg  Config
	Mem  []int64

	Threads []*Thread
	cur     int // currently scheduled thread id, -1 none
	budget  int // instructions left in current quantum

	heapNext  int64
	heapLimit int64

	inputs   map[int][]int64
	inputPos map[int]int
	inputSeq int // global count of consumed input words
	outputs  map[int][]int64

	tools []Tool
	ev    Event

	steps    uint64
	rng      rng
	failed   bool
	failPC   int
	failMsg  string
	stopped  bool
	reason   StopReason
	schedRec []SchedSlice
	schedPos int // position in ForceSchedule
	curSlice SchedSlice
}

// New creates a machine for prog. The data segment is copied to
// address 0; thread 0 starts at instruction 0 with its stack pointer
// (r31) at the top of its stack region.
func New(prog *isa.Program, cfg Config) (*Machine, error) {
	cfg.fill()
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	need := len(prog.Data) + cfg.MaxThreads*cfg.StackWords + 1024
	if cfg.MemWords < need {
		return nil, fmt.Errorf("vm: MemWords %d too small (need >= %d)", cfg.MemWords, need)
	}
	m := &Machine{
		Prog:     prog,
		Cfg:      cfg,
		Mem:      make([]int64, cfg.MemWords),
		inputs:   make(map[int][]int64),
		inputPos: make(map[int]int),
		outputs:  make(map[int][]int64),
		cur:      -1,
		rng:      rng{state: cfg.Seed + 0x9e3779b97f4a7c15},
	}
	copy(m.Mem, prog.Data)
	m.heapNext = int64(len(prog.Data))
	m.heapLimit = int64(cfg.MemWords - cfg.MaxThreads*cfg.StackWords)
	m.newThread(0, nil)
	return m, nil
}

// MustNew is New that panics on error.
func MustNew(prog *isa.Program, cfg Config) *Machine {
	m, err := New(prog, cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// newThread creates a thread starting at pc; arg (if non-nil) is
// placed in r1. Returns nil if the thread limit is reached.
func (m *Machine) newThread(pc int, arg *int64) *Thread {
	id := len(m.Threads)
	if id >= m.Cfg.MaxThreads {
		return nil
	}
	t := &Thread{ID: id, PC: pc}
	// Stack regions grow downward from the top of memory; thread i
	// owns [MemWords-(i+1)*StackWords, MemWords-i*StackWords).
	top := int64(m.Cfg.MemWords - id*m.Cfg.StackWords)
	t.Regs[31] = top - 1
	if arg != nil {
		t.Regs[1] = *arg
	}
	m.Threads = append(m.Threads, t)
	return t
}

// AttachTool registers a tool; tools run in attachment order.
func (m *Machine) AttachTool(t Tool) { m.tools = append(m.tools, t) }

// SetInput replaces the contents of input channel ch.
func (m *Machine) SetInput(ch int, words []int64) {
	m.inputs[ch] = append([]int64(nil), words...)
	m.inputPos[ch] = 0
}

// Output returns the words written to output channel ch so far.
func (m *Machine) Output(ch int) []int64 { return m.outputs[ch] }

// Steps returns the global dynamic instruction count.
func (m *Machine) Steps() uint64 { return m.steps }

// Schedule returns the recorded scheduling slices (RecordSchedule).
//
//scaldift:ignore deadexport ROADMAP item 9 replays a run from this schedule
func (m *Machine) Schedule() []SchedSlice { return m.schedRec }

// InputsConsumed returns the global count of input words consumed.
func (m *Machine) InputsConsumed() int { return m.inputSeq }

// Thread returns thread tid, or nil.
func (m *Machine) Thread(tid int) *Thread {
	if tid < 0 || tid >= len(m.Threads) {
		return nil
	}
	return m.Threads[tid]
}

// fault marks the machine failed and halts the faulting thread.
func (m *Machine) fault(t *Thread, pc int, format string, args ...any) {
	m.failed = true
	m.failPC = pc
	m.failMsg = fmt.Sprintf(format, args...)
	t.State = Halted
	m.stopped = true
	m.reason = StopFailed
}

// result builds the Result for the current stop state.
func (m *Machine) result() *Result {
	return &Result{Reason: m.reason, Steps: m.steps, Failed: m.failed,
		FailPC: m.failPC, FailMsg: m.failMsg}
}

// rng is a splitmix64 PRNG whose state is plain data, so snapshots can
// capture it (math/rand's state is not exposed).
type rng struct{ state uint64 }

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
