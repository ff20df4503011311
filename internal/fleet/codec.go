package fleet

// Batched wire codec for cross-shard traffic.
//
// All traffic between shards moves in per-(source, destination) byte
// buffers exchanged at epoch barriers: a shard appends frames for a
// destination into one contiguous buffer, and the destination decodes
// the whole batch in source order. Framing is a one-byte type tag
// followed by the record's fixed wire encoding (core.Beat for the
// shard-level liveness beat, core.Summary for rollup reports), so a
// batch of thousands of summaries is a single allocation-free append
// stream on the send side and a single linear scan on the receive side.

import (
	"fmt"

	"repro/internal/core"
)

// Frame type tags.
const (
	frameBeat    byte = 1
	frameSummary byte = 2
)

const beatFrameWire = 4 // encoded core.Beat

// ErrBadFrame reports a malformed cross-shard batch.
var ErrBadFrame = fmt.Errorf("fleet: malformed frame batch")

// appendBeatFrame appends a shard-liveness beat frame.
//
//hbvet:noalloc
func appendBeatFrame(dst []byte, b core.Beat) []byte {
	return b.AppendMarshal(append(dst, frameBeat))
}

// appendSummaryFrame appends a rollup summary frame.
//
//hbvet:noalloc
func appendSummaryFrame(dst []byte, s core.Summary) []byte {
	return s.AppendMarshal(append(dst, frameSummary))
}

// batchDecoder walks one cross-shard batch frame by frame.
type batchDecoder struct {
	buf []byte
}

//hbvet:noalloc
func (d *batchDecoder) done() bool { return len(d.buf) == 0 }

// next decodes the next frame, returning exactly one of beat or summary
// (tag tells which).
//
//hbvet:noalloc
func (d *batchDecoder) next() (tag byte, beat core.Beat, sum core.Summary, err error) {
	tag = d.buf[0]
	switch tag {
	case frameBeat:
		if len(d.buf) < 1+beatFrameWire {
			//lint:allow noalloc-closure cold error path; batches come whole from appendBeatFrame
			return 0, beat, sum, fmt.Errorf("%w: truncated beat", ErrBadFrame)
		}
		beat, err = core.UnmarshalBeat(d.buf[1 : 1+beatFrameWire])
		d.buf = d.buf[1+beatFrameWire:]
	case frameSummary:
		sum, d.buf, err = core.UnmarshalSummary(d.buf[1:])
	default:
		//lint:allow noalloc-closure cold error path; an unknown tag means a codec bug, not load
		return 0, beat, sum, fmt.Errorf("%w: unknown tag %d", ErrBadFrame, tag)
	}
	return tag, beat, sum, err
}
