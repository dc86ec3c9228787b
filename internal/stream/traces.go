package stream

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/zipfmath"
)

// This file generates the synthetic application traces used by the example
// programs: a packet-flow trace (network monitoring, the paper's §1
// "network measurements" motivation) and a search-query log (the "search
// engine queries" motivation). Both substitute for proprietary traces with
// the skewed distributions the paper assumes.

// Flow is one packet arrival in a synthetic network trace.
type Flow struct {
	SrcIP, DstIP uint32
	Bytes        uint32
}

// FlowKey packs the (src, dst) pair into the uint64 item identifier the
// heavy-hitter algorithms consume.
func (f Flow) FlowKey() uint64 { return uint64(f.SrcIP)<<32 | uint64(f.DstIP) }

// NetFlow generates a synthetic packet trace with nFlows distinct
// (src, dst) flows whose total byte counts follow a Zipfian distribution
// with parameter alpha, split into packets of 64–1500 bytes. Packets are
// shuffled uniformly.
func NetFlow(nFlows int, alpha float64, totalBytes float64, seed uint64) []Flow {
	if nFlows < 1 {
		panic("stream: NetFlow requires nFlows >= 1")
	}
	src := rng.New(seed)
	zeta := zipfmath.Zeta(nFlows, alpha)
	var out []Flow
	for i := 0; i < nFlows; i++ {
		sip := uint32(src.Uint64())
		dip := uint32(src.Uint64())
		remaining := totalBytes / (math.Pow(float64(i+1), alpha) * zeta)
		for remaining >= 64 {
			pkt := float64(64 + src.Intn(1437)) // 64..1500
			if pkt > remaining {
				pkt = remaining
			}
			out = append(out, Flow{SrcIP: sip, DstIP: dip, Bytes: uint32(pkt)})
			remaining -= pkt
		}
	}
	src.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// QueryLog generates a synthetic search-query log: total queries drawn
// i.i.d. from a Zipfian popularity distribution over nQueries distinct
// query strings ("query-0000" is the most popular).
func QueryLog(nQueries int, alpha float64, total uint64, seed uint64) []string {
	ids := ZipfSampled(nQueries, alpha, total, seed)
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = fmt.Sprintf("query-%04d", id)
	}
	return out
}
