package telemetry

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strconv"
	"testing"
)

// TestPerfettoStructure validates the exported JSON against the Trace
// Event Format contract Perfetto loads: a traceEvents array whose
// records carry a known phase, pids/tids with name metadata, counter
// tracks for gauges, and duration spans for message phases.
func TestPerfettoStructure(t *testing.T) {
	tr := lifecycleTrace()
	var buf bytes.Buffer
	if err := ExportPerfetto(&buf, tr, Summarize(tr)); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if f.Unit != "ms" && f.Unit != "ns" {
		t.Errorf("displayTimeUnit = %q, want ms or ns", f.Unit)
	}
	if len(f.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}

	validPhase := map[string]bool{"M": true, "i": true, "C": true, "X": true}
	namedThreads := map[[2]int]bool{}
	usedThreads := map[[2]int]bool{}
	counters, instants, spans := 0, 0, 0
	for i, e := range f.TraceEvents {
		ph, _ := e["ph"].(string)
		if !validPhase[ph] {
			t.Fatalf("event %d has phase %q", i, ph)
		}
		if _, ok := e["pid"].(float64); !ok {
			t.Fatalf("event %d has no pid: %v", i, e)
		}
		pid := int(e["pid"].(float64))
		tid := 0
		if v, ok := e["tid"].(float64); ok {
			tid = int(v)
		}
		switch ph {
		case "M":
			if name, _ := e["name"].(string); name == "thread_name" {
				namedThreads[[2]int{pid, tid}] = true
			}
		case "i":
			instants++
			usedThreads[[2]int{pid, tid}] = true
			if s, _ := e["s"].(string); s != "t" {
				t.Errorf("instant %d has scope %q, want \"t\"", i, s)
			}
			if _, ok := e["ts"].(float64); !ok {
				t.Errorf("instant %d has no ts", i)
			}
		case "C":
			counters++
			args, _ := e["args"].(map[string]any)
			if len(args) == 0 {
				t.Errorf("counter %d has no args (Perfetto needs a value series)", i)
			}
		case "X":
			spans++
			dur, _ := e["dur"].(float64)
			if dur <= 0 {
				t.Errorf("span %d has dur %v, want > 0", i, e["dur"])
			}
		}
	}
	if counters == 0 {
		t.Error("gauges exported no counter events")
	}
	if instants == 0 {
		t.Error("no instant events")
	}
	if spans == 0 {
		t.Error("no message phase spans")
	}
	for th := range usedThreads {
		if !namedThreads[th] {
			t.Errorf("thread pid=%d tid=%d carries events but has no thread_name metadata", th[0], th[1])
		}
	}
}

// TestPerfettoDeterministic pins byte-level determinism of the export.
func TestPerfettoDeterministic(t *testing.T) {
	tr := lifecycleTrace()
	var a, b bytes.Buffer
	if err := ExportPerfetto(&a, tr, Summarize(tr)); err != nil {
		t.Fatal(err)
	}
	if err := ExportPerfetto(&b, tr, Summarize(tr)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same trace exported to different bytes")
	}
}

func TestCSVHistogramExport(t *testing.T) {
	tr := lifecycleTrace()
	var buf bytes.Buffer
	if err := ExportCSV(&buf, Summarize(tr), 4); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("export is not valid CSV: %v", err)
	}
	if len(rows) < 2 {
		t.Fatal("CSV has no data rows")
	}
	header := "phase,count,mean,p50,p95,max,bucket_lo,bucket_hi,bucket_count"
	if got := join(rows[0]); got != header {
		t.Errorf("header = %q, want %q", got, header)
	}
	// Bucket counts per phase must sum to the phase's sample count.
	sums := map[string]int{}
	counts := map[string]int{}
	for _, r := range rows[1:] {
		n, err := strconv.Atoi(r[8])
		if err != nil {
			t.Fatalf("bad bucket count %q", r[8])
		}
		sums[r[0]] += n
		counts[r[0]], _ = strconv.Atoi(r[1])
	}
	for phase, sum := range sums {
		if sum != counts[phase] {
			t.Errorf("phase %s: bucket counts sum to %d, want %d", phase, sum, counts[phase])
		}
	}
}

func join(cells []string) string {
	out := ""
	for i, c := range cells {
		if i > 0 {
			out += ","
		}
		out += c
	}
	return out
}
