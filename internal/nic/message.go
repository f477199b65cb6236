package nic

// Message is one unit of traffic a source endpoint must deliver reliably.
type Message struct {
	// ID identifies the message in results and traces.
	ID uint64
	// Src and Dest are endpoint numbers.
	Src, Dest int
	// Payload is the request content.
	Payload []byte
	// Created is the cycle the message was offered to the endpoint.
	Created uint64
}

// Result reports the final fate of a message and the telemetry the
// experiments aggregate.
type Result struct {
	Msg Message
	// Delivered is true when the destination acknowledged an intact copy.
	Delivered bool
	// Reply holds the destination responder's reply payload, if any.
	Reply []byte
	// Retries counts connection attempts beyond the first.
	Retries int
	// BlockedFast counts attempts torn down by a BCB (fast reclamation).
	BlockedFast int
	// BlockedDetailed counts attempts rejected with a detailed blocked
	// status reply, along with the blocking stage of the last such reply.
	BlockedDetailed int
	// LastBlockedStage is the stage of the most recent detailed block
	// (-1 if none).
	LastBlockedStage int
	// ChecksumFailures counts attempts that completed with inconsistent
	// checksums (corrupted data).
	ChecksumFailures int
	// Timeouts counts attempts abandoned by the watchdog.
	Timeouts int
	// SuspectStage is the fault localization output: the first stage
	// whose reported checksum disagreed with the expected value, on the
	// latest attempt, completed or blocked with a detailed reply, that
	// found a disagreement (-1 if no attempt did).
	SuspectStage int
	// Injected is the cycle the first word of the first attempt entered
	// the network; Done is the cycle the acknowledgment (final TURN)
	// arrived. Done-Injected is the paper's injection-to-acknowledgment
	// latency; Done-Msg.Created additionally includes queueing delay.
	Injected, Done uint64
}
