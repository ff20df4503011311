package core

// Rollup summaries: the wire records leaf clusters report up the
// aggregation tree of a monitoring fleet (internal/fleet). A leaf
// cluster's coordinator condenses its membership view into one Summary
// per epoch; aggregators merge child summaries with Add and report their
// own; the root's summary is the fleet-wide liveness view. The encoding
// is a fixed-size little-endian record so a shard's whole per-epoch
// output batches into one contiguous buffer (see fleet's codec).

import "fmt"

// Summary is one cluster's (or subtree's) liveness rollup for one epoch.
type Summary struct {
	// Cluster identifies the reporting cluster (leaves) or aggregator
	// subtree root (inner nodes); id spaces are disjoint by construction
	// in the fleet.
	Cluster uint32
	// Epoch is the barrier index the summary was taken at.
	Epoch uint32
	// Total is the number of monitored endpoints in the subtree.
	Total uint32
	// Alive is how many of them the protocol currently trusts (neither
	// suspected nor inactivated).
	Alive uint32
	// Detections is the cumulative count of suspicions declared in the
	// subtree since the fleet started.
	Detections uint32
}

// summaryWire is the encoded size of a Summary.
const summaryWire = 20

// ErrBadSummary reports a malformed encoded summary.
var ErrBadSummary = fmt.Errorf("core: malformed summary")

// Add merges a child subtree's summary into an aggregate. Epoch follows
// the newest child so staleness checks compare against the merge result.
//
//hbvet:noalloc
func (s *Summary) Add(child Summary) {
	s.Total += child.Total
	s.Alive += child.Alive
	s.Detections += child.Detections
	if child.Epoch > s.Epoch {
		s.Epoch = child.Epoch
	}
}

// AppendMarshal appends the summary's wire encoding to dst and returns
// the extended slice; with capacity in dst it allocates nothing.
//
//hbvet:noalloc
func (s Summary) AppendMarshal(dst []byte) []byte {
	for _, v := range [5]uint32{s.Cluster, s.Epoch, s.Total, s.Alive, s.Detections} {
		dst = append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return dst
}

// UnmarshalSummary decodes one summary from the front of data and
// returns the remaining bytes.
//
//hbvet:noalloc
func UnmarshalSummary(data []byte) (Summary, []byte, error) {
	if len(data) < summaryWire {
		//lint:allow noalloc-closure cold error path; batches are produced by AppendMarshal and always whole records
		return Summary{}, nil, fmt.Errorf("%w: %d trailing bytes", ErrBadSummary, len(data))
	}
	var f [5]uint32
	for i := range f {
		o := i * 4
		f[i] = uint32(data[o]) | uint32(data[o+1])<<8 | uint32(data[o+2])<<16 | uint32(data[o+3])<<24
	}
	return Summary{Cluster: f[0], Epoch: f[1], Total: f[2], Alive: f[3], Detections: f[4]}, data[summaryWire:], nil
}
