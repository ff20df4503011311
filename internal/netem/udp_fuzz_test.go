package netem

import (
	"bytes"
	"testing"

	"repro/internal/core"
)

// FuzzUnmarshalBeat feeds arbitrary datagrams down the UDP receive path: the
// frame as receiveLoop decodes it, then its payload as the detector decodes
// a beat. Nothing may panic; whatever is accepted must be exactly what the
// encoders produce for the decoded values — so every malformed frame or
// beat is an error — and a beat built from the fuzzed fields, framed as
// Send frames it, must decode to itself. testdata/fuzz holds the malformed
// seeds: a short header, a wrong magic, an empty payload, a beat of another
// version and a beat one byte too long.
func FuzzUnmarshalBeat(f *testing.F) {
	beat := core.Beat{From: 3, Stay: true, Inc: 5}
	f.Add(encodeFrame(1, 2, beat.Marshal()), int32(1), int32(2), int16(3), uint8(5), true)
	f.Add(encodeFrame(-1, 1<<31-1, []byte{1, 0x80, 0, 0xff}), int32(-1), int32(1<<31-1), int16(-32768), uint8(127), false)
	f.Fuzz(func(t *testing.T, frame []byte, sender, recipient int32, from int16, inc uint8, stay bool) {
		if src, dst, payload, err := decodeFrame(frame); err == nil {
			if again := encodeFrame(src, dst, payload); !bytes.Equal(again, frame) {
				t.Fatalf("frame %x decodes to %d->%d %x, which frames as %x", frame, src, dst, payload, again)
			}
			if b, err := core.UnmarshalBeat(payload); err == nil {
				if again := b.AppendMarshal(nil); !bytes.Equal(again, payload) {
					t.Fatalf("beat %x decodes to %+v, which encodes as %x", payload, b, again)
				}
			}
		}

		want := core.Beat{From: core.ProcID(from), Stay: stay, Inc: inc & 0x7F}
		frame = encodeFrame(NodeID(sender), NodeID(recipient), want.AppendMarshal(nil))
		src, dst, payload, err := decodeFrame(frame)
		if err != nil || src != NodeID(sender) || dst != NodeID(recipient) {
			t.Fatalf("frame %x of %d->%d decodes to %d->%d, %v", frame, sender, recipient, src, dst, err)
		}
		if got, err := core.UnmarshalBeat(payload); err != nil || got != want {
			t.Fatalf("beat %+v decodes to %+v, %v", want, got, err)
		}
	})
}
