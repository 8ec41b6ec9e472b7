package server

import (
	"testing"

	"repro/internal/event"
)

// fuzzVocab declares symbols that stress the decoder pair: a
// case-variant prop pair, an escaped and a non-ASCII name, and U+FFFD,
// which encoding/json substitutes for invalid UTF-8.
func fuzzVocab() *event.Vocabulary {
	v := event.NewVocabulary()
	for _, e := range []string{"ev1", "ev2", "Props", `quo"te`, "unié", "\uFFFD"} {
		v.MustDeclare(e, event.KindEvent)
	}
	for _, p := range []string{"p", "P", "busy"} {
		v.MustDeclare(p, event.KindProp)
	}
	return v
}

// FuzzBatchDecodeParity checks the two halves of decodeTicks against
// each other: whenever the strict batch decoder accepts a body, the
// lenient path (StateJSON -> ToState -> Vocabulary.PackInto) must accept
// it too, with the same tick count and identical packed ticks.
func FuzzBatchDecodeParity(f *testing.F) {
	for _, seed := range []string{
		`{"events":["ev1","ev2"],"props":{"p":true,"busy":false}}` + "\n" + `{}`,
		`{"props":{"p":true,"p":false}}`,
		`{"props":{"p":false,"p":true}}`,
		`{"props":{"p":true,"P":false}}`,
		`{"Props":{"p":true}}`,
		`{"props":{"p":true},"Props":{"p":false}}`,
		`{"events":["quo\"te","uni\u00e9","\ud834\udd1e","\ud834"]}`,
		"{\"events\":[\"\xff\"]}",
		"{\"events\":[\"\\n\xfe\"],\"props\":{\"\xff\":true}}",
		`{"events":[null,"ev1"]}`,
		`{"events":null,"props":null}`,
		`{"events":["ev1"],"events":["ev2"]}`,
		`null`,
		`{"events":["ev1"]}{"events":["ev2"]}`,
	} {
		f.Add([]byte(seed))
	}
	v := fuzzVocab()
	f.Fuzz(func(t *testing.T, body []byte) {
		var pb event.PackedBatch
		n, err := event.NewBatchDecoder(v).Decode(body, &pb, 0)
		if err != nil || n == 0 {
			return // the strict decoder declined; ingest falls back
		}
		states, derr := decodeLenient(body, 0)
		if derr != nil {
			t.Fatalf("strict decoder accepted %q (%d ticks), lenient rejected it: %s", body, n, derr.msg)
		}
		if len(states) != n {
			t.Fatalf("%q: strict decoded %d ticks, lenient %d", body, n, len(states))
		}
		for i, st := range states {
			if want := v.Pack(st); !pb.Tick(i).Equal(want) {
				t.Fatalf("%q tick %d: strict packed %x, lenient %x", body, i, pb.Tick(i), want)
			}
		}
	})
}
