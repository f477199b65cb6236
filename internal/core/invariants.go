package core

import "fmt"

// CheckInvariants audits the router's internal consistency and returns the
// first violation found, or nil. It is intended for simulation test
// harnesses that want continuous structural checking under load:
//
//  1. ownership is bijective: busyBy[bp] == fp implies fwd[fp].bp == bp,
//     and a forward port's bp implies matching busyBy;
//  2. no two forward ports claim the same backward port;
//  3. every buffer set has at most one holder: a backward port's set is
//     its connected forward port's or the one closer flushing it (no two
//     closers flush the same backward port), every queue cursor lies
//     within the injWords region it indexes, and a forward port without a
//     backward port has empty cursors unless it is in fpBlockedReply,
//     whose cursor counts its bufferless reply;
//  4. an allocated backward port lies within the configured dilation's
//     direction structure;
//  5. detached closers hold only ports marked as flushing (-2), and there
//     are Outputs closer slots, so detach always finds one;
//  6. the hot header's masks agree with the state they summarize: live
//     names exactly the non-idle forward ports, enabled exactly the
//     enabled-and-attached ones (valid between cycles, which is when
//     harnesses call this).
//
// Harnesses call this for every router every cycle, and nearly every call
// passes, so the verdict is decided in one walk (consistent); only a router
// that fails it is walked again clause by clause (explain), which words the
// first violation.
func (r *Router) CheckInvariants() error {
	if r.consistent() {
		return nil
	}
	return r.explain()
}

// holding classes every fpState value by what clause 1 asks of its bp: an
// unconnected port holds none (-1), a connected one holds one (1), and a
// value that names no state is asked nothing (0).
var holding = [256]int8{
	fpIdle: -1, fpBlockedWait: -1, fpBlockedReply: -1, fpDrain: -1,
	fpHeader: 1, fpForward: 1, fpReversed: 1,
}

// consistent reports whether every clause of CheckInvariants holds. It
// walks the forward ports, the closers and busyBy once each, collecting
// the backward ports connected ports hold, the ones closers flush and the
// non-idle forward ports as masks (MaxPorts bounds every port number by
// the mask width), and stops at the first failed check. It only decides;
// explain says which clause failed, and the two agree on every router
// (FuzzInvariantVerdict).
func (r *Router) consistent() bool {
	// NewRouter sizes fwd by Inputs and busyBy by Outputs, and nothing
	// resizes them, so the router's own lengths stand in for its Config.
	fwd, busyBy, closers := r.fwd, r.busyBy, r.closers
	if r.watchedPorts() != r.enabled || cap(closers) != len(busyBy) {
		return false
	}
	injCap := uint(r.injCap)
	var conn, live uint64
	for fp := range fwd {
		p := &fwd[fp]
		if !p.within(injCap) {
			return false
		}
		if p.state == fpIdle { // most ports, most cycles: no bp, not live
			if p.bp != -1 || p.qLen != 0 {
				return false
			}
			continue
		}
		if p.bp < 0 && p.qLen != 0 && p.state != fpBlockedReply {
			return false
		}
		live |= 1 << (fp & 63)
		switch holding[p.state] {
		case 1:
			bp := uint(int(p.bp)) // a negative bp wraps past every bound
			if bp >= uint(len(busyBy)) || bp >= uint(r.window(len(busyBy))) || int(busyBy[bp]) != fp {
				return false
			}
			conn |= 1 << bp
		case -1:
			if p.bp != -1 {
				return false
			}
		}
	}
	if live != r.live {
		return false
	}
	var flush uint64
	for i := range closers {
		c := &closers[i]
		bp := uint(int(c.bp))
		if bp >= uint(len(busyBy)) || busyBy[bp] != -2 || flush>>bp&1 != 0 || !c.within(injCap) {
			return false
		}
		flush |= 1 << bp
	}
	// busyBy marks a backward port free, owned or flushing. Each connected
	// port's bp named that port as owner (checked above), so an owned port
	// outside conn is the one clause 1 rejects; a flushing one needs a
	// closer.
	var busy, flushing uint64
	for bp, owner := range busyBy {
		switch bit := uint64(1) << (bp & 63); {
		case owner == -1:
		case owner >= 0:
			busy |= bit
		case owner == -2:
			flushing |= bit
		default:
			return false
		}
	}
	return busy&^conn == 0 && flushing&^flush == 0
}

// explain is CheckInvariants' clause-by-clause walk: it returns the first
// violation, worded for the clause it breaks, or nil.
func (r *Router) explain() error {
	// claimed[bp] is the claiming forward port plus one, 0 while unclaimed.
	var claimed [MaxPorts]int8
	for fp := range r.fwd {
		p := &r.fwd[fp]
		if err := r.cursorError(&p.flow, "fp", fp); err != nil {
			return err
		}
		if p.bp < 0 && p.qLen != 0 && p.state != fpBlockedReply {
			return fmt.Errorf("%s: fp%d in state %v holds no bp but queues words [%d:%d]",
				r.name, fp, p.state, p.qHead, p.qLen)
		}
		switch p.state {
		case fpIdle, fpBlockedWait, fpBlockedReply, fpDrain:
			if p.bp != -1 {
				return fmt.Errorf("%s: fp%d in state %v holds bp %d", r.name, fp, p.state, p.bp)
			}
		case fpHeader, fpForward, fpReversed:
			if p.bp < 0 || int(p.bp) >= r.cfg.Outputs {
				return fmt.Errorf("%s: fp%d connected with invalid bp %d", r.name, fp, p.bp)
			}
			if prev := claimed[p.bp]; prev != 0 {
				return fmt.Errorf("%s: bp %d claimed by fp%d and fp%d", r.name, p.bp, prev-1, fp)
			}
			claimed[p.bp] = int8(fp + 1)
			if int(r.busyBy[p.bp]) != fp {
				return fmt.Errorf("%s: fp%d holds bp %d but busyBy says %d",
					r.name, fp, p.bp, r.busyBy[p.bp])
			}
			if int(p.bp) >= r.Radix()*r.set.Dilation {
				return fmt.Errorf("%s: fp%d bp %d outside the configured radix*dilation window",
					r.name, fp, p.bp)
			}
		}
	}
	// flushed has a bit per backward port a closer flushes.
	var flushed uint64
	for i := range r.closers {
		c := &r.closers[i]
		if c.bp < 0 || int(c.bp) >= r.cfg.Outputs {
			return fmt.Errorf("%s: closer with invalid bp %d", r.name, c.bp)
		}
		if r.busyBy[c.bp] != -2 {
			return fmt.Errorf("%s: closer holds bp %d but busyBy says %d",
				r.name, c.bp, r.busyBy[c.bp])
		}
		if flushed&bit(int(c.bp)) != 0 {
			return fmt.Errorf("%s: bp %d flushed by two closers", r.name, c.bp)
		}
		flushed |= bit(int(c.bp))
		if err := r.cursorError(&c.flow, "the closer on bp", int(c.bp)); err != nil {
			return err
		}
	}
	for bp, owner := range r.busyBy {
		switch {
		case owner >= 0:
			if claimed[bp]-1 != owner {
				return fmt.Errorf("%s: busyBy[%d] = fp%d but no connected port claims it",
					r.name, bp, owner)
			}
		case owner == -2:
			if flushed&bit(bp) == 0 {
				return fmt.Errorf("%s: bp %d marked flushing with no closer", r.name, bp)
			}
		case owner != -1:
			return fmt.Errorf("%s: busyBy[%d] has invalid marker %d", r.name, bp, owner)
		}
	}
	if slots := cap(r.closers); slots != r.cfg.Outputs {
		return fmt.Errorf("%s: %d closer slots for %d backward ports", r.name, slots, r.cfg.Outputs)
	}
	var live uint64
	bit := uint64(1)
	for fp := range r.fwd {
		if r.fwd[fp].state != fpIdle {
			live |= bit
		}
		bit <<= 1
	}
	if r.live != live {
		return fmt.Errorf("%s: live mask %#x but the non-idle forward ports are %#x", r.name, r.live, live)
	}
	if watched := r.watchedPorts(); r.enabled != watched {
		return fmt.Errorf("%s: enabled mask %#x but the enabled, attached forward ports are %#x", r.name, r.enabled, watched)
	}
	return nil
}

// window is Radix()*Dilation, the backward ports the configured
// dilation's directions span, for a router with the given Outputs.
// Settings.Validate admits only power-of-two dilations, for which it needs
// no division.
func (r *Router) window(outputs int) int {
	d := r.set.Dilation
	if d > 0 && d&(d-1) == 0 {
		return outputs &^ (d - 1)
	}
	return outputs / d * d
}

// within reports whether f's queue cursors lie within its injCap-word
// region: qHead <= qLen <= injCap. Each difference is below 256 exactly
// when it does not wrap, so one comparison decides both (injCap, an
// injWords count, is below 256 too).
func (f *flow) within(injCap uint) bool {
	return (uint(f.qLen)-uint(f.qHead))|(injCap-uint(f.qLen)) < 256
}

// cursorError words the violation, if any, of the queue cursors of forward
// port or closer who+n lying outside the injWords region.
func (r *Router) cursorError(f *flow, who string, n int) error {
	if f.within(uint(r.injCap)) {
		return nil
	}
	return fmt.Errorf("%s: %s%d queue cursors [%d:%d] outside the %d-word region", r.name, who, n, f.qHead, f.qLen, r.injCap)
}
