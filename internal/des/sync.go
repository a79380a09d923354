package des

// AwaitBegin arms an await of one completion and returns the done callback
// to hand to the asynchronous activity; the caller starts the activity and
// then calls AwaitEnd. done must be called exactly once, from engine context
// (an event or another process); it may fire before AwaitEnd, since a Wake
// on a running process is latched.
func AwaitBegin(p *Proc) func() {
	c := p.co
	if c.awaitDone == nil {
		c.awaitDone = func() {
			q := c.p
			q.awaiting = false
			q.Wake()
		}
	}
	p.awaiting = true
	return c.awaitDone
}

// AwaitStep is AwaitEnd as a sub-step of a Stepper: Parked while the
// completion armed by AwaitBegin has not fired, Done once it has. A wake
// that is not the completion resumes the Stepper early; it steps again and
// is parked again.
func AwaitStep(p *Proc) Wait {
	if p.awaiting {
		return Parked
	}
	return Done
}

// AwaitEnd parks p until the completion armed by AwaitBegin has fired.
func AwaitEnd(p *Proc) {
	for AwaitStep(p) == Parked {
		p.Park()
	}
}
