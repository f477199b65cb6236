package core

import "fmt"

// clauseWalk is the reference CheckInvariants is held to: the audit
// checked clause by clause, with a claim table where CheckInvariants keeps
// masks. It returns the first violation, worded for the clause it breaks,
// or nil.
func (r *Router) clauseWalk() error {
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
