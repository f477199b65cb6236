package nic

// Test-only access for the external test package, which watches the
// endpoints of whole networks built by netsim (an import this package's
// own tests cannot make).

// SenderState and ReceiverState are the states LaneStates reports.
type (
	SenderState   = sState
	ReceiverState = rState
)

// LaneStates returns the state of each of e's senders, one an injection
// link, and of each of its receivers, one a delivery link.
func LaneStates(e *Endpoint) (send []SenderState, recv []ReceiverState) {
	for i := range e.senders {
		send = append(send, e.senders[i].state)
	}
	for i := range e.receivers {
		recv = append(recv, e.receivers[i].state)
	}
	return send, recv
}

// SenderMachine is the sender's protocol as a table: for each state, the
// states one Eval may leave it in, and what moves it there.
var SenderMachine = map[sState]map[sState]string{
	sIdle: {
		sSending:  "a queued message is assigned to the link",
		sCooldown: "BCB as the first word goes out: the last attempt's, when the link delay outlasts CloseGap",
	},
	sSending: {
		sListening: "the TURN is sent",
		sCooldown:  "BCB: blocked fast, DROP sent",
	},
	sListening: {
		sDropping: "the reply is complete, fails its checksum, or BCB or the listen timeout ends it",
		sCooldown: "the connection closes before the reply completes: a detailed blocked reply",
	},
	sDropping: {
		sCooldown: "the DROP is sent",
	},
	sCooldown: {
		sIdle: "CloseGap quiet cycles have passed",
	},
}

// ReceiverMachine is the receiver's protocol as a table, in the form of
// SenderMachine.
var ReceiverMachine = map[rState]map[rState]string{
	rIdle: {
		rAssemble: "DATA or a checksum word",
		rReply:    "a TURN with no message before it",
	},
	rAssemble: {
		rIdle:  "DROP or an idle channel",
		rReply: "TURN",
	},
	rReply: {
		rIdle:    "DROP: the source abandons the reply",
		rClosing: "the reply's TURN is sent",
	},
	rClosing: {
		rIdle: "DROP or an idle channel",
	},
}
