package tracing

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestRecordNilReceiver(t *testing.T) {
	var tr *LookupTrace
	tr.Record(EvArrival, 0, 0) // must not panic
}

func TestRecordCountsSurviveOverflow(t *testing.T) {
	tr := &LookupTrace{Start: time.Now()}
	for i := 0; i < MaxEvents+10; i++ {
		tr.Record(EvRetry, int64(i), 0)
	}
	if tr.EventCount != MaxEvents {
		t.Errorf("EventCount = %d, want %d", tr.EventCount, MaxEvents)
	}
	if tr.Dropped != 10 {
		t.Errorf("Dropped = %d, want 10", tr.Dropped)
	}
	if got := tr.CountKind(EvRetry); got != MaxEvents+10 {
		t.Errorf("CountKind(EvRetry) = %d, want %d", got, MaxEvents+10)
	}
	if tr.Flags&FlagRetried == 0 {
		t.Error("FlagRetried not set by Record(EvRetry)")
	}
}

func TestFlagsFromKinds(t *testing.T) {
	tr := &LookupTrace{Start: time.Now()}
	tr.Record(EvProbe, 0, 0)
	if tr.Flags != 0 {
		t.Errorf("EvProbe set flags %v, want none", tr.Flags.Strings())
	}
	if tr.Flags.Interesting() {
		t.Error("probe-only trace reported interesting")
	}
	tr.Record(EvRehome, 2, 0)
	if tr.Flags&FlagRehomed == 0 || !tr.Flags.Interesting() {
		t.Errorf("EvRehome: flags %v, interesting=%v", tr.Flags.Strings(), tr.Flags.Interesting())
	}
}

func TestFlagStrings(t *testing.T) {
	f := FlagSampled | FlagRetried | FlagFallback
	got := strings.Join(f.Strings(), ",")
	if got != "sampled,retried,fallback" {
		t.Errorf("Strings = %q", got)
	}
}

func TestEventKindNames(t *testing.T) {
	for k := EventKind(0); int(k) < NumEventKinds; k++ {
		if s := k.String(); s == "" || strings.HasPrefix(s, "EventKind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
	if s := EventKind(200).String(); s != "EventKind(200)" {
		t.Errorf("out-of-range kind = %q", s)
	}
}

func TestSampleRateZeroAndNil(t *testing.T) {
	var nilRec *Recorder
	if tr := nilRec.Sample(0, 1); tr != nil {
		t.Error("nil recorder sampled")
	}
	if got := nilRec.Snapshot(); got != nil {
		t.Errorf("nil recorder snapshot = %v", got)
	}
	nilRec.Finish(nil, "cache", true) // must not panic

	rec := New(Config{SampleRate: 0})
	for i := 0; i < 1000; i++ {
		if tr := rec.Sample(0, 1); tr != nil {
			t.Fatal("rate-0 recorder head-sampled a lookup")
		}
	}
	// Late capture still works at rate 0.
	if tr := rec.Late(3, 42); tr == nil || tr.Flags&FlagLate == 0 {
		t.Error("Late capture broken at rate 0")
	}
}

func TestSampleRateOne(t *testing.T) {
	rec := New(Config{SampleRate: 1})
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		tr := rec.Sample(2, 7)
		if tr == nil {
			t.Fatal("rate-1 recorder skipped a lookup")
		}
		if tr.Flags&FlagSampled == 0 {
			t.Fatal("sampled trace missing FlagSampled")
		}
		if seen[tr.ID] {
			t.Fatalf("duplicate trace id %d", tr.ID)
		}
		seen[tr.ID] = true
	}
}

func TestSampleRateFractionBounds(t *testing.T) {
	rec := New(Config{SampleRate: 0.5})
	n, hits := 20000, 0
	for i := 0; i < n; i++ {
		if rec.Sample(0, 1) != nil {
			hits++
		}
	}
	frac := float64(hits) / float64(n)
	if math.Abs(frac-0.5) > 0.05 {
		t.Errorf("sampled fraction %.3f, want ~0.5", frac)
	}
}

func TestJournalWrap(t *testing.T) {
	rec := New(Config{SampleRate: 1, JournalSize: 8})
	for i := 0; i < 20; i++ {
		tr := rec.Sample(0, 1)
		rec.Finish(tr, "cache", true)
	}
	got := rec.Snapshot()
	if len(got) != 8 {
		t.Fatalf("snapshot length %d, want 8 (journal size)", len(got))
	}
	// Oldest-first: the surviving traces are ids 13..20.
	for i, tr := range got {
		if want := uint64(13 + i); tr.ID != want {
			t.Errorf("snapshot[%d].ID = %d, want %d", i, tr.ID, want)
		}
	}
}

func TestFinishSealsAndLogs(t *testing.T) {
	var buf bytes.Buffer
	rec := New(Config{SampleRate: 1, Logger: slog.New(slog.NewJSONHandler(&buf, nil))})
	tr := rec.Sample(1, 0x0a000001)
	tr.Start = time.Now() // the caller's stamp: Sample reads no clock
	tr.Record(EvProbe, 0, 0)
	rec.Finish(tr, "fe", true)

	if tr.ServedBy != "fe" || !tr.OK || tr.LatencyNS <= 0 {
		t.Errorf("Finish left served_by=%q ok=%v latency=%d", tr.ServedBy, tr.OK, tr.LatencyNS)
	}
	if tr.CountKind(EvVerdict) != 1 {
		t.Error("Finish did not record EvVerdict")
	}
	var rec2 map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec2); err != nil {
		t.Fatalf("log line not JSON: %v (%q)", err, buf.String())
	}
	for _, key := range []string{"trace_id", "addr", "arrival_lc", "served_by", "ok", "latency_ns", "events", "flags"} {
		if _, present := rec2[key]; !present {
			t.Errorf("log record missing %q: %s", key, buf.String())
		}
	}
	if rec2["addr"] != "10.0.0.1" {
		t.Errorf("log addr = %v, want 10.0.0.1", rec2["addr"])
	}

	snap := rec.Snapshot()
	if len(snap) != 1 || snap[0].ID != tr.ID {
		t.Errorf("journal snapshot %v, want the finished trace", snap)
	}
}

func TestHandlerFilters(t *testing.T) {
	mk := func(id uint64, servedBy string, latency int64, flags Flag) LookupTrace {
		return LookupTrace{ID: id, ServedBy: servedBy, LatencyNS: latency, Flags: flags, Start: time.Unix(0, 0)}
	}
	traces := []LookupTrace{
		mk(1, "cache", 100, FlagSampled),
		mk(2, "remote", 5000, FlagSampled|FlagRetried),
		mk(3, "fallback", 9000, FlagLate|FlagFallback),
		mk(4, "cache", 200, FlagSampled),
	}
	h := Handler(func() []LookupTrace { return traces })

	get := func(url string) (int, jsonDoc) {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", url, nil))
		var doc jsonDoc
		if rr.Code == 200 {
			if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
				t.Fatalf("%s: bad JSON: %v", url, err)
			}
		}
		return rr.Code, doc
	}

	if code, doc := get("/debug/spal/traces"); code != 200 || doc.Count != 4 {
		t.Errorf("unfiltered: code=%d count=%d", code, doc.Count)
	}
	if _, doc := get("/debug/spal/traces?served_by=cache"); doc.Count != 2 {
		t.Errorf("served_by=cache count=%d, want 2", doc.Count)
	}
	if _, doc := get("/debug/spal/traces?min_latency_ns=1000"); doc.Count != 2 {
		t.Errorf("min_latency_ns=1000 count=%d, want 2", doc.Count)
	}
	if _, doc := get("/debug/spal/traces?interesting=1"); doc.Count != 2 {
		t.Errorf("interesting count=%d, want 2", doc.Count)
	}
	if _, doc := get("/debug/spal/traces?limit=1"); doc.Count != 1 || doc.Traces[0].TraceID != "0000000000000004" {
		t.Errorf("limit=1 kept %+v, want newest (id 4)", doc.Traces)
	}
	if code, _ := get("/debug/spal/traces?min_latency_ns=zzz"); code != 400 {
		t.Errorf("bad min_latency_ns: code=%d, want 400", code)
	}
	if code, _ := get("/debug/spal/traces?limit=-1"); code != 400 {
		t.Errorf("bad limit: code=%d, want 400", code)
	}
}
