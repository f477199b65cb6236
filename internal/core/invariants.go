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
// passes, so it is one walk over the forward ports, the closers and busyBy
// that collects the backward ports connected ports hold, the ones closers
// flush and the non-idle forward ports as masks (MaxPorts bounds every
// port number by the mask width). It returns at the first failed check,
// and only then words it. Tests hold its verdict and its error text to a
// clause-by-clause reference walk (FuzzInvariantVerdict).
func (r *Router) CheckInvariants() error {
	// NewRouter sizes fwd by Inputs and busyBy by Outputs, and nothing
	// resizes them, so the router's own lengths stand in for its Config.
	fwd, busyBy, closers := r.fwd, r.busyBy, r.closers
	injCap := uint(r.injCap)
	window := uint(r.window(len(busyBy)))
	var conn, live uint64
	for fp := range fwd {
		p := &fwd[fp]
		if !p.within(injCap) {
			return r.cursorError(&p.flow, "fp", fp)
		}
		if p.state == fpIdle && p.bp == -1 && p.qLen == 0 {
			continue // most ports, most cycles
		}
		if p.bp < 0 && p.qLen != 0 && p.state != fpBlockedReply {
			return fmt.Errorf("%s: fp%d in state %v holds no bp but queues words [%d:%d]",
				r.name, fp, p.state, p.qHead, p.qLen)
		}
		if p.state != fpIdle {
			live |= bit(fp)
		}
		switch holding[p.state] {
		case -1:
			if p.bp != -1 {
				return fmt.Errorf("%s: fp%d in state %v holds bp %d", r.name, fp, p.state, p.bp)
			}
		case 1:
			bp := uint(int(p.bp)) // a negative bp wraps past every bound
			switch {
			case bp >= uint(len(busyBy)):
				return fmt.Errorf("%s: fp%d connected with invalid bp %d", r.name, fp, p.bp)
			case conn>>bp&1 != 0:
				return fmt.Errorf("%s: bp %d claimed by fp%d and fp%d", r.name, p.bp, r.claimant(p.bp), fp)
			case int(busyBy[bp]) != fp:
				return fmt.Errorf("%s: fp%d holds bp %d but busyBy says %d",
					r.name, fp, p.bp, busyBy[bp])
			case bp >= window:
				return fmt.Errorf("%s: fp%d bp %d outside the configured radix*dilation window",
					r.name, fp, p.bp)
			}
			conn |= 1 << bp
		}
	}
	var flushed uint64
	for i := range closers {
		c := &closers[i]
		bp := uint(int(c.bp))
		switch {
		case bp >= uint(len(busyBy)):
			return fmt.Errorf("%s: closer with invalid bp %d", r.name, c.bp)
		case busyBy[bp] != -2:
			return fmt.Errorf("%s: closer holds bp %d but busyBy says %d", r.name, c.bp, busyBy[bp])
		case flushed>>bp&1 != 0:
			return fmt.Errorf("%s: bp %d flushed by two closers", r.name, c.bp)
		case !c.within(injCap):
			return r.cursorError(&c.flow, "the closer on bp", int(c.bp))
		}
		flushed |= 1 << bp
	}
	// Each connected port's bp named that port as owner (checked above),
	// so an owned port outside conn is one no connected port claims.
	for bp, owner := range busyBy {
		switch {
		case owner == -1:
		case owner >= 0:
			if conn&bit(bp) == 0 {
				return fmt.Errorf("%s: busyBy[%d] = fp%d but no connected port claims it",
					r.name, bp, owner)
			}
		case owner == -2:
			if flushed&bit(bp) == 0 {
				return fmt.Errorf("%s: bp %d marked flushing with no closer", r.name, bp)
			}
		default:
			return fmt.Errorf("%s: busyBy[%d] has invalid marker %d", r.name, bp, owner)
		}
	}
	if slots := cap(closers); slots != len(busyBy) {
		return fmt.Errorf("%s: %d closer slots for %d backward ports", r.name, slots, len(busyBy))
	}
	if r.live != live {
		return fmt.Errorf("%s: live mask %#x but the non-idle forward ports are %#x", r.name, r.live, live)
	}
	if watched := r.watchedPorts(); r.enabled != watched {
		return fmt.Errorf("%s: enabled mask %#x but the enabled, attached forward ports are %#x", r.name, r.enabled, watched)
	}
	return nil
}

// holding classes every fpState value by what clause 1 asks of its bp: an
// unconnected port holds none (-1), a connected one holds one (1), and a
// value that names no state is asked nothing (0).
var holding = [256]int8{
	fpIdle: -1, fpBlockedWait: -1, fpBlockedReply: -1, fpDrain: -1,
	fpHeader: 1, fpForward: 1, fpReversed: 1,
}

// claimant returns the first connected forward port that holds bp: the
// earlier claimant when CheckInvariants finds a second.
func (r *Router) claimant(bp int8) int {
	for fp := range r.fwd {
		if p := &r.fwd[fp]; holding[p.state] == 1 && p.bp == bp {
			return fp
		}
	}
	return -1
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
