package des

// AwaitBegin arms an await of one completion and returns the done callback
// to hand to the asynchronous activity; the caller starts the activity and
// then calls AwaitEnd. done must be called exactly once, from engine context
// (an event or another process); it may fire before AwaitEnd, since a Wake
// on a running process is latched.
func AwaitBegin(p *Proc) func() {
	if p.awaitDone == nil {
		p.awaitDone = func() {
			p.awaiting = false
			p.Wake()
		}
	}
	p.awaiting = true
	return p.awaitDone
}

// AwaitEnd parks p until the completion armed by AwaitBegin has fired.
func AwaitEnd(p *Proc) {
	for p.awaiting {
		p.Park()
	}
}
