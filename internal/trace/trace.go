// Package trace records structured serving events — request assignment,
// expert switches, batch executions, completions — with export to CSV
// and JSON for offline analysis of a run.
package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"
)

// Kind classifies an event.
type Kind string

const (
	// KindArrival: a request entered the system.
	KindArrival Kind = "arrival"
	// KindAssign: a request (stage) was assigned to a queue.
	KindAssign Kind = "assign"
	// KindSwitch: a pool loaded an expert (an expert switch).
	KindSwitch Kind = "switch"
	// KindBatch: an executor finished a batch.
	KindBatch Kind = "batch"
	// KindComplete: a request finished its final stage.
	KindComplete Kind = "complete"
	// KindRejected: admission control rejected an arriving request. The
	// request never touches a queue; this is its only trace of existence.
	KindRejected Kind = "rejected"
	// KindDropped: a node crash voided an in-flight request; its lease
	// holder (the cluster front end) redelivers it elsewhere.
	KindDropped Kind = "dropped"
	// KindStream: a new stream began serving (warm restarts append
	// consecutive streams to one log; request IDs restart per stream,
	// so consumers must pair arrivals to completions within stream
	// segments). Detail carries the stream name.
	KindStream Kind = "stream"
)

// Event is one recorded occurrence. At is virtual time from simulation
// start.
type Event struct {
	At      time.Duration `json:"at"`
	Kind    Kind          `json:"kind"`
	Actor   string        `json:"actor,omitempty"`   // queue/pool/executor name
	Request int64         `json:"request,omitempty"` // request id
	Expert  int32         `json:"expert,omitempty"`  // expert id
	N       int           `json:"n,omitempty"`       // batch size
	Dur     time.Duration `json:"dur,omitempty"`     // operation duration
	Detail  string        `json:"detail,omitempty"`  // e.g. load source
}

// Log is an append-only event recorder; it keeps every event. The zero
// value is ready to use. Log is not safe for concurrent use — the
// simulation is single-threaded.
type Log struct {
	events []Event
}

// New returns an empty log.
func New() *Log { return &Log{} }

// Add appends an event.
func (l *Log) Add(ev Event) { l.events = append(l.events, ev) }

// Len reports the number of recorded events.
func (l *Log) Len() int { return len(l.events) }

// Events returns the recorded events in order. Callers must not modify
// the returned slice.
func (l *Log) Events() []Event { return l.events }

// Filter returns the recorded events of one kind.
func (l *Log) Filter(kind Kind) []Event {
	var out []Event
	for _, ev := range l.events {
		if ev.Kind == kind {
			out = append(out, ev)
		}
	}
	return out
}

// Count reports the number of recorded events of one kind.
func (l *Log) Count(kind Kind) int {
	n := 0
	for _, ev := range l.events {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

// WriteCSV exports the log as CSV with a header row.
func (l *Log) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"at_us", "kind", "actor", "request", "expert", "n", "dur_us", "detail"}); err != nil {
		return err
	}
	for _, ev := range l.events {
		rec := []string{
			strconv.FormatInt(ev.At.Microseconds(), 10),
			string(ev.Kind),
			ev.Actor,
			strconv.FormatInt(ev.Request, 10),
			strconv.FormatInt(int64(ev.Expert), 10),
			strconv.Itoa(ev.N),
			strconv.FormatInt(ev.Dur.Microseconds(), 10),
			ev.Detail,
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON exports the log as a JSON array.
func (l *Log) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(l.events)
}

// Summary renders a one-line digest of the log.
func (l *Log) Summary() string {
	return fmt.Sprintf("trace: %d events (%d assigns, %d switches, %d batches, %d completions)",
		len(l.events), l.Count(KindAssign), l.Count(KindSwitch), l.Count(KindBatch), l.Count(KindComplete))
}
