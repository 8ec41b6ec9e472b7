package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/event"
)

// tickDecodeError is a body the tick decoder rejected, with the HTTP
// status ingest answers it with.
type tickDecodeError struct {
	status int
	msg    string
}

// decodeTicks is the session's one NDJSON tick decoder, shared by
// ingest and by raw-frame journal replay so replay decodes a frame the
// way ingest admitted it. On fast-path sessions the strict zero-copy
// event.BatchDecoder packs the body straight into bitset lanes over the
// session vocabulary and packed is returned. Any strict error (unknown
// field, malformed line, oversized batch) and every body of a session
// off the fast path take the lenient encoding/json path, which returns
// map states and produces the exact error responses; the strict path
// only ever wins on input the lenient one accepts, with bit-identical
// packing. maxTicks <= 0 means no limit.
func (s *session) decodeTicks(body []byte, maxTicks int) (packed *event.PackedBatch, states []event.State, err *tickDecodeError) {
	if s.fastPath {
		pb := new(event.PackedBatch)
		if n, derr := event.NewBatchDecoder(s.vocab).Decode(body, pb, maxTicks); derr == nil && n > 0 {
			return pb, nil, nil
		}
	}
	states, err = decodeLenient(body, maxTicks)
	return nil, states, err
}

// decodeLenient is the encoding/json half of decodeTicks.
func decodeLenient(body []byte, maxTicks int) ([]event.State, *tickDecodeError) {
	var states []event.State
	dec := json.NewDecoder(bytes.NewReader(body))
	for {
		var t StateJSON
		if err := dec.Decode(&t); err == io.EOF {
			break
		} else if err != nil {
			return nil, &tickDecodeError{http.StatusBadRequest, fmt.Sprintf("tick %d: %v", len(states), err)}
		}
		if maxTicks > 0 && len(states) >= maxTicks {
			return nil, &tickDecodeError{http.StatusRequestEntityTooLarge,
				fmt.Sprintf("batch exceeds %d ticks; split the stream", maxTicks)}
		}
		states = append(states, t.ToState())
	}
	if len(states) == 0 {
		return nil, &tickDecodeError{http.StatusBadRequest, "no ticks in body"}
	}
	return states, nil
}
