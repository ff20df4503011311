package fleet

import (
	"bytes"
	"testing"

	"repro/internal/core"
)

// FuzzBatchDecoder feeds arbitrary bytes to the cross-shard batch decoder,
// which walks them as receiving shards do, frame by frame until the batch
// is done or a frame fails. Nothing may panic; a batch that decodes whole
// must be exactly what appendBeatFrame and appendSummaryFrame produce for
// the decoded records — so every malformed batch is an error — and a batch
// of a beat and a summary built from the fuzzed fields must decode to
// them. testdata/fuzz holds the malformed seeds: a truncated beat, a
// truncated summary, an unknown tag and beats of versions 0 and 2.
func FuzzBatchDecoder(f *testing.F) {
	beat := core.Beat{From: 63, Stay: true, Inc: 5}
	sum := core.Summary{Cluster: 1<<20 - 1, Epoch: 7, Total: 64, Alive: 1, Detections: 63}
	f.Add(appendSummaryFrame(appendBeatFrame(nil, beat), sum), int16(63), uint8(5), true, uint32(1<<20-1), uint32(7), uint32(64), uint32(1), uint32(63))
	f.Add(appendBeatFrame(appendSummaryFrame(nil, core.Summary{}), core.Beat{From: -1, Inc: 127}), int16(-32768), uint8(255), false, uint32(0), uint32(1<<32-1), uint32(0), uint32(0), uint32(0))
	f.Fuzz(func(t *testing.T, batch []byte, from int16, inc uint8, stay bool, cluster, epoch, total, alive, detections uint32) {
		var again []byte
		for d := (batchDecoder{buf: batch}); !d.done(); {
			tag, b, s, err := d.next()
			if err != nil {
				again = nil
				break
			}
			if tag == frameBeat {
				again = appendBeatFrame(again, b)
			} else {
				again = appendSummaryFrame(again, s)
			}
		}
		if again != nil && !bytes.Equal(again, batch) {
			t.Fatalf("batch %x decodes whole to records that encode as %x", batch, again)
		}

		wantBeat := core.Beat{From: core.ProcID(from), Stay: stay, Inc: inc & 0x7F}
		wantSum := core.Summary{Cluster: cluster, Epoch: epoch, Total: total, Alive: alive, Detections: detections}
		d := batchDecoder{buf: appendSummaryFrame(appendBeatFrame(nil, wantBeat), wantSum)}
		if tag, b, _, err := d.next(); err != nil || tag != frameBeat || b != wantBeat {
			t.Fatalf("beat frame of %+v decodes to tag %d %+v, %v", wantBeat, tag, b, err)
		}
		if tag, _, s, err := d.next(); err != nil || tag != frameSummary || s != wantSum || !d.done() {
			t.Fatalf("summary frame of %+v decodes to tag %d %+v, %v, %d bytes left", wantSum, tag, s, err, len(d.buf))
		}
	})
}
