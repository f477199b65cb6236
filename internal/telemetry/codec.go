package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// The trace-file format is a versioned line-oriented text encoding:
//
//	mtr1 <events> <total>
//	<cycle> <KIND> <srckind>:<stage>:<index>:<lane> <msg> <a> <b>
//	...
//
// One line per event, fields space-separated, sources structured (no
// name parsing). The encoding is canonical — a given Trace has exactly
// one byte representation — which makes encoded traces the currency of
// the serial-vs-parallel identity tests: byte equality of files is
// event-for-event equality of streams.

const codecMagic = "mtr1"

// Encode writes t in the mtr1 text format.
func Encode(w io.Writer, t Trace) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%s %d %d\n", codecMagic, len(t.Events), t.Total)
	for _, e := range t.Events {
		fmt.Fprintf(bw, "%d %s %s:%d:%d:%d %d %d %d\n",
			e.Cycle, e.Kind, e.Src.Kind, e.Src.Stage, e.Src.Index, e.Src.Lane,
			e.Msg, e.A, e.B)
	}
	return bw.Flush()
}

// WriteFile writes t in the mtr1 text format to the named file, created or
// truncated: the trace file every CLI's -trace flag writes.
func WriteFile(name string, t Trace) error {
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	if err := Encode(f, t); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Decode parses an mtr1 stream back into a Trace.
func Decode(r io.Reader) (Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	if !sc.Scan() {
		return Trace{}, fmt.Errorf("telemetry: empty trace input")
	}
	var n int
	var t Trace
	if _, err := fmt.Sscanf(sc.Text(), codecMagic+" %d %d", &n, &t.Total); err != nil {
		return Trace{}, fmt.Errorf("telemetry: bad trace header %q: %v", sc.Text(), err)
	}
	t.Events = make([]Event, 0, n)
	line := 1
	for sc.Scan() {
		line++
		e, err := decodeLine(sc.Text())
		if err != nil {
			return Trace{}, fmt.Errorf("telemetry: line %d: %v", line, err)
		}
		t.Events = append(t.Events, e)
	}
	if err := sc.Err(); err != nil {
		return Trace{}, err
	}
	if len(t.Events) != n {
		return Trace{}, fmt.Errorf("telemetry: header declares %d events, stream carries %d", n, len(t.Events))
	}
	return t, nil
}

func decodeLine(s string) (Event, error) {
	fields := strings.Fields(s)
	if len(fields) != 6 {
		return Event{}, fmt.Errorf("want 6 fields, got %d in %q", len(fields), s)
	}
	var e Event
	var err error
	if e.Cycle, err = strconv.ParseUint(fields[0], 10, 64); err != nil {
		return Event{}, fmt.Errorf("cycle: %v", err)
	}
	kind, ok := kindByName[fields[1]]
	if !ok {
		return Event{}, fmt.Errorf("unknown event kind %q", fields[1])
	}
	e.Kind = kind
	if e.Src, err = decodeSource(fields[2]); err != nil {
		return Event{}, err
	}
	if e.Msg, err = strconv.ParseUint(fields[3], 10, 64); err != nil {
		return Event{}, fmt.Errorf("msg: %v", err)
	}
	a, err := strconv.ParseInt(fields[4], 10, 32)
	if err != nil {
		return Event{}, fmt.Errorf("a: %v", err)
	}
	b, err := strconv.ParseInt(fields[5], 10, 32)
	if err != nil {
		return Event{}, fmt.Errorf("b: %v", err)
	}
	e.A, e.B = int32(a), int32(b)
	return e, nil
}

func decodeSource(s string) (Source, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 4 {
		return Source{}, fmt.Errorf("bad source %q", s)
	}
	var src Source
	found := false
	for k, name := range sourceKindNames {
		if name == parts[0] {
			src.Kind = SourceKind(k)
			found = true
			break
		}
	}
	if !found {
		return Source{}, fmt.Errorf("unknown source kind %q", parts[0])
	}
	stage, err := strconv.ParseInt(parts[1], 10, 16)
	if err != nil {
		return Source{}, fmt.Errorf("stage: %v", err)
	}
	index, err := strconv.ParseInt(parts[2], 10, 32)
	if err != nil {
		return Source{}, fmt.Errorf("index: %v", err)
	}
	lane, err := strconv.ParseUint(parts[3], 10, 8)
	if err != nil {
		return Source{}, fmt.Errorf("lane: %v", err)
	}
	src.Stage, src.Index, src.Lane = int16(stage), int32(index), uint8(lane)
	return src, nil
}
