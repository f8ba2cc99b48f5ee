package vm

import "scaldift/internal/isa"

// Run executes until all threads halt, the run fails, deadlock, or
// MaxSteps. It may be called again after SetInput to continue a
// deadlocked (input-starved) machine.
func (m *Machine) Run() *Result {
	m.stopped = false
	for !m.stopped {
		if !m.Step() {
			break
		}
	}
	return m.result()
}

// Step executes a single instruction on the currently scheduled
// thread, picking a new thread when the quantum expires or the thread
// cannot continue. It returns false when the machine has stopped.
func (m *Machine) Step() bool {
	if m.stopped {
		return false
	}
	if m.steps >= m.Cfg.MaxSteps {
		m.flushSlice()
		m.stopped = true
		m.reason = StopMaxSteps
		return false
	}
	t := m.scheduled()
	if t == nil {
		m.flushSlice()
		m.stopped = true
		if m.liveThreads() == 0 {
			m.reason = StopAllHalted
		} else {
			m.reason = StopDeadlock
		}
		return false
	}
	m.exec(t)
	return !m.stopped
}

// liveThreads counts threads that have not halted.
func (m *Machine) liveThreads() int {
	n := 0
	for _, t := range m.Threads {
		if t.State != Halted {
			n++
		}
	}
	return n
}

// tryUnblock re-evaluates a blocked thread's wait condition. Waking
// threads do not advance their PC (except barriers): the blocking
// instruction re-executes, now succeeding, so tools observe a proper
// completion event. A barrier arrival was already counted at block
// time, so a woken barrier thread resumes after the instruction.
func (m *Machine) tryUnblock(t *Thread) bool {
	if t.State != Blocked {
		return t.State == Runnable
	}
	switch t.waitKind {
	case blockLock:
		if m.Mem[t.waitAddr] == 0 {
			t.State = Runnable
		}
	case blockFlag:
		if m.Mem[t.waitAddr] != 0 {
			t.State = Runnable
		}
	case blockBarrier:
		if m.Mem[t.waitAddr+1] != t.waitGen {
			t.State = Runnable
			t.PC++
		}
	case blockJoin:
		if tt := m.Thread(t.waitTID); tt == nil || tt.State == Halted {
			t.State = Runnable
		}
	case blockInput:
		if m.inputPos[t.waitCh] < len(m.inputs[t.waitCh]) {
			t.State = Runnable
		}
	}
	if t.State == Runnable {
		t.waitKind = blockNone
	}
	return t.State == Runnable
}

// scheduled returns the thread to execute next, consuming quantum
// budget and making scheduling decisions at quantum boundaries.
func (m *Machine) scheduled() *Thread {
	if m.cur >= 0 && m.budget > 0 {
		t := m.Threads[m.cur]
		if t.State == Runnable {
			return t
		}
	}
	m.flushSlice()
	// Collect runnable threads, waking any whose condition now holds.
	var runnable []int
	for _, t := range m.Threads {
		if m.tryUnblock(t) {
			runnable = append(runnable, t.ID)
		}
	}
	if len(runnable) == 0 {
		m.cur = -1
		return nil
	}
	var pick, quantum int
	if m.schedPos < len(m.Cfg.ForceSchedule) {
		sl := m.Cfg.ForceSchedule[m.schedPos]
		m.schedPos++
		pick = -1
		for _, tid := range runnable {
			if tid == sl.TID {
				pick = tid
				break
			}
		}
		if pick < 0 {
			// Forced thread not runnable (perturbed log); fall back.
			pick = runnable[0]
		}
		quantum = sl.Steps
		if quantum <= 0 {
			quantum = m.Cfg.Quantum
		}
	} else {
		idx := 0
		if len(runnable) > 1 {
			idx = m.rng.intn(len(runnable))
		}
		pick = runnable[idx]
		quantum = m.Cfg.Quantum
		if m.Cfg.RandomPreempt {
			quantum = 1 + m.rng.intn(m.Cfg.Quantum)
		}
	}
	m.cur = pick
	m.budget = quantum
	m.curSlice = SchedSlice{TID: pick, Steps: 0}
	return m.Threads[pick]
}

// flushSlice records the just-finished scheduling slice.
func (m *Machine) flushSlice() {
	if m.Cfg.RecordSchedule && m.curSlice.Steps > 0 {
		m.schedRec = append(m.schedRec, m.curSlice)
	}
	m.curSlice = SchedSlice{}
}

// block parks thread t on the given wait condition without advancing
// its PC (the blocking instruction logically re-executes on wake).
func (m *Machine) block(t *Thread, kind blockKind) {
	t.State = Blocked
	t.waitKind = kind
	m.budget = 0
}

// exec interprets one instruction on t and emits the tool event.
func (m *Machine) exec(t *Thread) {
	ins := &m.Prog.Instrs[t.PC]
	ev := &m.ev
	ev.reset()
	ev.TID = t.ID
	ev.PC = t.PC
	ev.Instr = ins
	ev.Kind = EvCompute
	// Number the attempted instruction, globally and per thread;
	// overwritten below once the outcome (completed vs blocked) is
	// known. Stamping here matters for the fault paths, which notify
	// early: without it the shared event would carry the numbers of
	// whatever instruction (possibly another thread's) ran last, and
	// consumers that order by Seq would misplace the fault.
	ev.Seq = m.steps + 1
	ev.ThreadSeq = t.Steps + 1

	pc := t.PC
	next := pc + 1
	blocked := false

	switch ins.Op {
	case isa.NOP:
	case isa.YIELD:
		m.budget = 0
	case isa.HALT:
		ev.Kind = EvHalt
		t.State = Halted
	case isa.FAIL:
		ev.Kind = EvFail
		m.notify(ev, t, pc) // deliver before stopping
		m.fault(t, pc, "explicit FAIL")
		return
	case isa.ASSERT:
		ev.addSrc(ins.Rs1)
		if t.Regs[ins.Rs1] == 0 {
			ev.Kind = EvFail
			m.notify(ev, t, pc)
			m.fault(t, pc, "assertion failed (r%d == 0)", ins.Rs1)
			return
		}
	case isa.MOVI:
		ev.DstReg = int(ins.Rd)
		ev.DstVal = ins.Imm
		m.setReg(t, ins.Rd, ins.Imm)
	case isa.MOV:
		ev.DstReg = int(ins.Rd)
		ev.addSrc(ins.Rs1)
		ev.DstVal = t.Regs[ins.Rs1]
		m.setReg(t, ins.Rd, t.Regs[ins.Rs1])
	case isa.ADD, isa.SUB, isa.MUL, isa.DIV, isa.MOD, isa.AND, isa.OR,
		isa.XOR, isa.SHL, isa.SHR,
		isa.CMPEQ, isa.CMPNE, isa.CMPLT, isa.CMPLE, isa.CMPGT, isa.CMPGE:
		a, b := t.Regs[ins.Rs1], t.Regs[ins.Rs2]
		if (ins.Op == isa.DIV || ins.Op == isa.MOD) && b == 0 {
			m.notify(ev, t, pc)
			m.fault(t, pc, "division by zero")
			return
		}
		v := alu(ins.Op, a, b)
		ev.DstReg = int(ins.Rd)
		ev.addSrc(ins.Rs1)
		ev.addSrc(ins.Rs2)
		ev.DstVal = v
		m.setReg(t, ins.Rd, v)
	case isa.ADDI, isa.MULI, isa.ANDI:
		a := t.Regs[ins.Rs1]
		var v int64
		switch ins.Op {
		case isa.ADDI:
			v = a + ins.Imm
		case isa.MULI:
			v = a * ins.Imm
		case isa.ANDI:
			v = a & ins.Imm
		}
		ev.DstReg = int(ins.Rd)
		ev.addSrc(ins.Rs1)
		ev.DstVal = v
		m.setReg(t, ins.Rd, v)
	case isa.LOAD:
		addr := t.Regs[ins.Rs1] + ins.Imm
		if !m.validAddr(addr) {
			m.notify(ev, t, pc)
			m.fault(t, pc, "load from invalid address %d", addr)
			return
		}
		v := m.Mem[addr]
		ev.Kind = EvLoad
		ev.DstReg = int(ins.Rd)
		ev.SrcMem = addr
		ev.AddrReg = int(ins.Rs1)
		ev.DstVal = v
		m.setReg(t, ins.Rd, v)
	case isa.STORE:
		addr := t.Regs[ins.Rs1] + ins.Imm
		if !m.validAddr(addr) {
			m.notify(ev, t, pc)
			m.fault(t, pc, "store to invalid address %d", addr)
			return
		}
		v := t.Regs[ins.Rs2]
		ev.Kind = EvStore
		ev.DstMem = addr
		ev.AddrReg = int(ins.Rs1)
		ev.addSrc(ins.Rs2)
		ev.DstVal = v
		m.Mem[addr] = v
	case isa.ALLOC:
		n := t.Regs[ins.Rs1]
		if n < 0 || m.heapNext+n > m.heapLimit {
			m.notify(ev, t, pc)
			m.fault(t, pc, "alloc of %d words failed (heap %d..%d)", n, m.heapNext, m.heapLimit)
			return
		}
		addr := m.heapNext
		m.heapNext += n
		ev.DstReg = int(ins.Rd)
		ev.addSrc(ins.Rs1)
		ev.DstVal = addr
		m.setReg(t, ins.Rd, addr)
	case isa.BR:
		ev.Kind = EvBranch
		next = ins.Target
	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE:
		a, b := t.Regs[ins.Rs1], t.Regs[ins.Rs2]
		taken := false
		switch ins.Op {
		case isa.BEQ:
			taken = a == b
		case isa.BNE:
			taken = a != b
		case isa.BLT:
			taken = a < b
		case isa.BGE:
			taken = a >= b
		}
		ev.Kind = EvBranch
		ev.addSrc(ins.Rs1)
		ev.addSrc(ins.Rs2)
		if taken {
			next = ins.Target
		}
	case isa.BEQZ, isa.BNEZ:
		a := t.Regs[ins.Rs1]
		taken := (ins.Op == isa.BEQZ && a == 0) || (ins.Op == isa.BNEZ && a != 0)
		ev.Kind = EvBranch
		ev.addSrc(ins.Rs1)
		if taken {
			next = ins.Target
		}
	case isa.CALL:
		ev.Kind = EvCall
		t.Calls = append(t.Calls, pc+1)
		next = ins.Target
	case isa.BRR, isa.CALLR:
		target := t.Regs[ins.Rs1]
		ev.Kind = EvBranch
		if ins.Op == isa.CALLR {
			ev.Kind = EvCall
		}
		ev.addSrc(ins.Rs1)
		if target < 0 || target >= int64(len(m.Prog.Instrs)) {
			m.notify(ev, t, pc)
			m.fault(t, pc, "indirect jump to invalid target %d", target)
			return
		}
		if ins.Op == isa.CALLR {
			t.Calls = append(t.Calls, pc+1)
		}
		next = int(target)
	case isa.RET:
		ev.Kind = EvRet
		if len(t.Calls) == 0 {
			m.notify(ev, t, pc)
			m.fault(t, pc, "return with empty call stack")
			return
		}
		next = t.Calls[len(t.Calls)-1]
		t.Calls = t.Calls[:len(t.Calls)-1]
	case isa.IN:
		ch := int(ins.Imm)
		pos := m.inputPos[ch]
		if pos >= len(m.inputs[ch]) {
			t.waitCh = ch
			m.block(t, blockInput)
			ev.Kind = EvInput
			ev.Blocked = true
			blocked = true
			break
		}
		v := m.inputs[ch][pos]
		m.inputPos[ch] = pos + 1
		idx := m.inputSeq
		m.inputSeq++
		ev.Kind = EvInput
		ev.DstReg = int(ins.Rd)
		ev.DstVal = v
		ev.Ch = ch
		ev.IOVal = v
		ev.InputIdx = idx
		m.setReg(t, ins.Rd, v)
	case isa.INAVAIL:
		ch := int(ins.Imm)
		v := int64(len(m.inputs[ch]) - m.inputPos[ch])
		ev.Kind = EvCompute // avail count is not a taint source
		ev.DstReg = int(ins.Rd)
		ev.DstVal = v
		m.setReg(t, ins.Rd, v)
	case isa.OUT:
		ch := int(ins.Imm)
		v := t.Regs[ins.Rs1]
		m.outputs[ch] = append(m.outputs[ch], v)
		ev.Kind = EvOutput
		ev.addSrc(ins.Rs1)
		ev.Ch = ch
		ev.IOVal = v
	case isa.SPAWN:
		arg := t.Regs[ins.Rs1]
		nt := m.newThread(ins.Target, &arg)
		if nt == nil {
			m.notify(ev, t, pc)
			m.fault(t, pc, "thread limit (%d) exceeded", m.Cfg.MaxThreads)
			return
		}
		ev.Kind = EvSpawn
		ev.DstReg = int(ins.Rd)
		ev.addSrc(ins.Rs1)
		ev.DstVal = int64(nt.ID)
		m.setReg(t, ins.Rd, int64(nt.ID))
	case isa.JOIN:
		target := int(t.Regs[ins.Rs1])
		ev.Kind = EvJoin
		ev.addSrc(ins.Rs1)
		if tt := m.Thread(target); tt != nil && tt.State != Halted {
			t.waitTID = target
			m.block(t, blockJoin)
			ev.Blocked = true
			blocked = true
		}
	case isa.LOCK:
		addr := t.Regs[ins.Rs1] + ins.Imm
		if !m.validAddr(addr) {
			m.notify(ev, t, pc)
			m.fault(t, pc, "lock at invalid address %d", addr)
			return
		}
		ev.Kind = EvLock
		if m.Mem[addr] == 0 {
			m.Mem[addr] = int64(t.ID) + 1
		} else {
			t.waitAddr = addr
			m.block(t, blockLock)
			ev.Blocked = true
			blocked = true
		}
	case isa.UNLOCK:
		addr := t.Regs[ins.Rs1] + ins.Imm
		if !m.validAddr(addr) {
			m.notify(ev, t, pc)
			m.fault(t, pc, "unlock at invalid address %d", addr)
			return
		}
		ev.Kind = EvUnlock
		if m.Mem[addr] != int64(t.ID)+1 {
			m.notify(ev, t, pc)
			m.fault(t, pc, "unlock of lock %d not held by thread %d", addr, t.ID)
			return
		}
		m.Mem[addr] = 0
	case isa.BARRIER:
		// A barrier object is two words: Mem[addr]=arrival count,
		// Mem[addr+1]=generation.
		addr := t.Regs[ins.Rs1] + ins.Imm
		count := t.Regs[ins.Rs2]
		if !m.validAddr(addr) || !m.validAddr(addr+1) {
			m.notify(ev, t, pc)
			m.fault(t, pc, "barrier at invalid address %d", addr)
			return
		}
		ev.Kind = EvBarrier
		m.Mem[addr]++
		if m.Mem[addr] >= count {
			m.Mem[addr] = 0
			m.Mem[addr+1]++ // release the generation
		} else {
			t.waitAddr = addr
			t.waitGen = m.Mem[addr+1]
			m.block(t, blockBarrier)
			ev.Blocked = true
			blocked = true
		}
	case isa.FLAGSET, isa.FLAGCLR:
		addr := t.Regs[ins.Rs1] + ins.Imm
		if !m.validAddr(addr) {
			m.notify(ev, t, pc)
			m.fault(t, pc, "flag at invalid address %d", addr)
			return
		}
		var v int64
		if ins.Op == isa.FLAGSET {
			v = 1
		}
		ev.Kind = EvFlag
		ev.DstMem = addr
		ev.DstVal = v
		m.Mem[addr] = v
	case isa.FLAGWT:
		addr := t.Regs[ins.Rs1] + ins.Imm
		if !m.validAddr(addr) {
			m.notify(ev, t, pc)
			m.fault(t, pc, "flag at invalid address %d", addr)
			return
		}
		ev.Kind = EvFlag
		if m.Mem[addr] == 0 {
			t.waitAddr = addr
			m.block(t, blockFlag)
			ev.Blocked = true
			blocked = true
		}
	case isa.CAS:
		addr := t.Regs[ins.Rs1]
		if !m.validAddr(addr) {
			m.notify(ev, t, pc)
			m.fault(t, pc, "cas at invalid address %d", addr)
			return
		}
		old := m.Mem[addr]
		ev.Kind = EvCas
		ev.DstReg = int(ins.Rd)
		ev.addSrc(ins.Rs2)
		ev.SrcMem = addr
		ev.DstVal = old
		if old == t.Regs[ins.Rs2] {
			m.Mem[addr] = ins.Imm
			ev.DstMem = addr
		}
		m.setReg(t, ins.Rd, old)
	default:
		m.notify(ev, t, pc)
		m.fault(t, pc, "unimplemented opcode %v", ins.Op)
		return
	}

	if blocked {
		ev.Seq = m.steps
	} else {
		t.PC = next
		t.Steps++
		m.steps++
		m.curSlice.Steps++
		m.budget--
		ev.Seq = m.steps
	}
	ev.ThreadSeq = t.Steps
	m.notify(ev, t, pc)
	if t.State == Halted {
		m.budget = 0
	}
}

// notify delivers the event to every attached tool.
func (m *Machine) notify(ev *Event, _ *Thread, _ int) {
	for _, tool := range m.tools {
		tool.OnEvent(m, ev)
	}
}

// setReg writes a register; r0 is the discard register.
func (m *Machine) setReg(t *Thread, r uint8, v int64) {
	if r != 0 {
		t.Regs[r] = v
	}
}

// validAddr reports whether addr is a legal word address.
func (m *Machine) validAddr(addr int64) bool {
	return addr >= 0 && addr < int64(len(m.Mem))
}

// alu evaluates a three-register ALU op.
func alu(op isa.Op, a, b int64) int64 {
	switch op {
	case isa.ADD:
		return a + b
	case isa.SUB:
		return a - b
	case isa.MUL:
		return a * b
	case isa.DIV:
		return a / b
	case isa.MOD:
		return a % b
	case isa.AND:
		return a & b
	case isa.OR:
		return a | b
	case isa.XOR:
		return a ^ b
	case isa.SHL:
		return a << uint64(b&63)
	case isa.SHR:
		return int64(uint64(a) >> uint64(b&63))
	}
	return boolToInt(cmp(op, a, b))
}

func cmp(op isa.Op, a, b int64) bool {
	switch op {
	case isa.CMPEQ:
		return a == b
	case isa.CMPNE:
		return a != b
	case isa.CMPLT:
		return a < b
	case isa.CMPLE:
		return a <= b
	case isa.CMPGT:
		return a > b
	case isa.CMPGE:
		return a >= b
	}
	return false
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
