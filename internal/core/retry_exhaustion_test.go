package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
)

// scriptedSupplier is a minimal hand-rolled supplier whose response to a
// fetch is scripted per request-ID occurrence: the Nth time a given
// request ID arrives (retries re-send the same ID), the Nth script action
// runs (the last action repeats). This pins down exactly which failure the
// merger sees on which attempt — something a real supplier behind a flaky
// proxy cannot guarantee.
type scriptedSupplier struct {
	lis     transport.Listener
	script  []string // per-occurrence action; last entry repeats
	payload []byte

	mu   sync.Mutex
	seen map[uint64]int
	wg   sync.WaitGroup
}

// Script actions.
const (
	actServe     = "serve"        // respond with the payload segment
	actShed      = "shed"         // admission-control rejection, 2ms retry-after
	actShedClose = "shed+close"   // shed, then kill the connection
	actClose     = "close"        // kill the connection without responding
	actRemoteErr = "remote-error" // respond with a flagError chunk
	actIgnore    = "ignore"       // swallow the request; conn stays open, silent
)

func newScriptedSupplier(t *testing.T, script []string) *scriptedSupplier {
	t.Helper()
	poolBalanced(t)
	lis, err := transport.NewTCP().Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &scriptedSupplier{
		lis:     lis,
		script:  script,
		payload: bytes.Repeat([]byte("retry-table-segment-"), 32),
		seen:    map[uint64]int{},
	}
	s.wg.Add(1)
	go s.acceptLoop()
	t.Cleanup(func() { lis.Close(); s.wg.Wait() })
	return s
}

func (s *scriptedSupplier) Addr() string { return s.lis.Addr() }

func (s *scriptedSupplier) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *scriptedSupplier) serveConn(conn transport.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	for {
		msg, err := conn.Recv()
		if err != nil {
			return
		}
		req, err := decodeFetchRequest(msg)
		if err != nil {
			return
		}
		s.mu.Lock()
		n := s.seen[req.ID]
		s.seen[req.ID] = n + 1
		s.mu.Unlock()
		if n >= len(s.script) {
			n = len(s.script) - 1
		}
		switch s.script[n] {
		case actServe:
			chunk := encodeDataChunk(dataChunk{
				ID: req.ID, Last: true, Sized: true,
				Total: int64(len(s.payload)), Payload: s.payload,
			})
			if conn.Send(chunk) != nil {
				return
			}
		case actShed:
			if conn.Send(appendShed(nil, req.ID, 2*time.Millisecond)) != nil {
				return
			}
		case actShedClose:
			_ = conn.Send(appendShed(nil, req.ID, 2*time.Millisecond))
			return
		case actClose:
			return
		case actRemoteErr:
			chunk := encodeDataChunk(dataChunk{
				ID: req.ID, Last: true, Failed: true, Payload: []byte("scripted failure"),
			})
			if conn.Send(chunk) != nil {
				return
			}
		}
	}
}

// TestRetryExhaustionTable drives one fetch through scripted failure
// sequences and checks both the outcome and the exact retry accounting:
// connection failures burn the MaxRetries budget and surface once it is
// spent; sheds and remote errors never touch it (a shed is transient
// backpressure, a remote error is a definitive per-request answer that a
// retry cannot improve).
func TestRetryExhaustionTable(t *testing.T) {
	cases := []struct {
		name       string
		script     []string
		maxRetries int

		wantErr     error // nil means the fetch must succeed
		wantRetries int64
		wantSheds   int64
		wantErrors  int64
	}{
		{
			name:       "exhausted-at-zero",
			script:     []string{actClose},
			maxRetries: 0,
			wantErr:    transport.ErrConnClosed,
			wantErrors: 1,
		},
		{
			name:        "exhausted-at-two",
			script:      []string{actClose},
			maxRetries:  2,
			wantErr:     transport.ErrConnClosed,
			wantRetries: 2, // exactly the budget, then the error surfaces
			wantErrors:  1,
		},
		{
			name:        "recovers-within-budget",
			script:      []string{actClose, actClose, actServe},
			maxRetries:  3,
			wantRetries: 2,
		},
		{
			name:       "shed-consumes-no-budget",
			script:     []string{actShed, actServe},
			maxRetries: 0, // transient: must still succeed with zero retries allowed
			wantSheds:  1,
		},
		{
			name:       "shed-storm-consumes-no-budget",
			script:     []string{actShed, actShed, actShed, actServe},
			maxRetries: 0,
			wantSheds:  3,
		},
		{
			name:       "shed-then-conn-death-while-parked",
			script:     []string{actShedClose, actServe},
			maxRetries: 0, // the dead conn holds no pending fetch, so no budget burns
			wantSheds:  1,
		},
		{
			name:        "shed-then-failure-interleaved",
			script:      []string{actShed, actClose, actServe},
			maxRetries:  1, // one failure retry + one shed park, independently counted
			wantRetries: 1,
			wantSheds:   1,
		},
		{
			name:       "remote-error-is-fatal",
			script:     []string{actRemoteErr},
			maxRetries: 5, // budget present but must not be spent
			wantErr:    ErrRemote,
			wantErrors: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sup := newScriptedSupplier(t, tc.script)
			m, err := NewNetMerger(MergerConfig{
				Transport:    transport.NewTCP(),
				MaxRetries:   tc.maxRetries,
				RetryBackoff: time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()

			var got []byte
			err = m.Fetch([]FetchSpec{{Addr: sup.Addr(), MapTask: "m-00000", Partition: 0}},
				func(_ FetchSpec, data []byte) error { got = bytes.Clone(data); return nil })

			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("fetch error = %v, want %v", err, tc.wantErr)
				}
			} else {
				if err != nil {
					t.Fatalf("fetch failed: %v", err)
				}
				if !bytes.Equal(got, sup.payload) {
					t.Fatalf("delivered %d bytes, want the %d-byte payload", len(got), len(sup.payload))
				}
			}
			st := m.Stats()
			if st.Retries != tc.wantRetries {
				t.Errorf("Retries = %d, want %d (stats %+v)", st.Retries, tc.wantRetries, st)
			}
			if st.Sheds != tc.wantSheds {
				t.Errorf("Sheds = %d, want %d (stats %+v)", st.Sheds, tc.wantSheds, st)
			}
			if st.ShedRetries != tc.wantSheds {
				t.Errorf("ShedRetries = %d, want %d: every shed must be retried (stats %+v)", st.ShedRetries, tc.wantSheds, st)
			}
			if st.Errors != tc.wantErrors {
				t.Errorf("Errors = %d, want %d (stats %+v)", st.Errors, tc.wantErrors, st)
			}
		})
	}
}

// TestStalledConnRetriesAfterDeadline covers the deadline-trip/retry
// interaction: a connection that accepts the request and then never
// responds surfaces no transport error, so the fetch deadline watchdog
// must fail it over, and the failover burns exactly one retry.
func TestStalledConnRetriesAfterDeadline(t *testing.T) {
	sup := newScriptedSupplier(t, []string{actIgnore, actServe})
	m, err := NewNetMerger(MergerConfig{
		Transport:    transport.NewTCP(),
		MaxRetries:   2,
		FetchTimeout: 150 * time.Millisecond,
		RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	var got []byte
	err = m.Fetch([]FetchSpec{{Addr: sup.Addr(), MapTask: "m-00000", Partition: 0}},
		func(_ FetchSpec, data []byte) error { got = bytes.Clone(data); return nil })
	if err != nil {
		t.Fatalf("fetch through stalled conn failed: %v", err)
	}
	if !bytes.Equal(got, sup.payload) {
		t.Fatalf("delivered %d bytes, want the %d-byte payload", len(got), len(sup.payload))
	}
	st := m.Stats()
	if st.DeadlineTrips == 0 {
		t.Fatalf("watchdog never tripped: %+v", st)
	}
	if st.Retries == 0 {
		t.Fatalf("deadline trip did not trigger a retry: %+v", st)
	}
	if st.Errors != 0 {
		t.Fatalf("errors surfaced despite retry budget: %+v", st)
	}
}

// TestTransientClassification pins the error taxonomy the retry machinery
// is built on: backpressure is the only transient condition; connection
// death, stalls, and corruption are fatal to the connection (and burn
// retry budget when a fetch was in flight).
func TestTransientClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"backpressure", transport.ErrBackpressure, true},
		{"wrapped-backpressure", fmt.Errorf("send: %w", transport.ErrBackpressure), true},
		{"conn-closed", transport.ErrConnClosed, false},
		{"fetch-stalled", errFetchStalled, false},
		{"corrupt-frame", ErrCorruptFrame, false},
		{"remote-error", ErrRemote, false},
		{"nil", nil, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := transport.Transient(tc.err); got != tc.want {
				t.Fatalf("Transient(%v) = %v, want %v", tc.err, got, tc.want)
			}
		})
	}
}
