package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"strconv"

	"github.com/mmsim/staggered/internal/cluster"
	"github.com/mmsim/staggered/internal/sched"
)

// defaultSeed is the seed whose digests are recorded in digests.json.
const defaultSeed = 1

// recordedDigests maps each workload to the digest of its simulated
// output at defaultSeed.  A run at that seed must reproduce it; any
// other seed prints its digest so two builds can be compared on a seed
// neither was tuned on.
//
//go:embed digests.json
var recordedDigestsJSON []byte

func recordedDigests() (map[string]string, error) {
	var m map[string]string
	if err := json.Unmarshal(recordedDigestsJSON, &m); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return m, nil
}

// digest hashes the simulated outcome of one replicate: every engine
// Result in run order and, for a cluster run, its dispatch and failover
// ledger.  Floats are hashed exactly, so any change to a counter, a
// busy ratio or the latency tally changes the digest.
func digest(runs []sched.Result, c *cluster.Result) string {
	h := sha256.New()
	for _, r := range runs {
		hashRun(h, r)
	}
	if c != nil {
		fmt.Fprintf(h, "cluster|%s|%v|%d|%d|%d|%d|%d|%d|%d|%s|%d\n",
			c.Dispatch, c.Routed, c.NoHolder, c.FailedOver, c.OrphanedRequests,
			c.ReAdmitted, c.ReAdmitDropped, c.LostArrivals, c.HealedReplicas,
			ftoa(c.RedistributeSeconds), len(c.Samples))
		for _, s := range c.Samples {
			fmt.Fprintf(h, "sample|%s|%d\n", ftoa(s.Seconds), s.Displays)
		}
		hashRun(h, c.Aggregate)
		for _, r := range c.Servers {
			hashRun(h, r)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func hashRun(h hash.Hash, r sched.Result) {
	fmt.Fprintf(h, "run|%s|%d|%s|%s|%s\n", r.Technique, r.Stations,
		ftoa(r.DistMean), ftoa(r.WarmupSeconds), ftoa(r.MeasureSeconds))
	fmt.Fprintf(h, "counts|%d|%d|%d|%d|%d|%d\n", r.Displays, r.Materializa,
		r.Replications, r.Hiccups, r.Coalescings, r.UniqueResidents)
	fmt.Fprintf(h, "busy|%s|%s\n", ftoa(r.TertiaryBusy), ftoa(r.DiskBusy))
	fmt.Fprintf(h, "degraded|%d|%d|%d|%d|%d|%d\n", r.Requests, r.DegradedHiccups,
		r.AbortedDisplays, r.OrphanedDisplays, r.RejectedDegraded, r.StarvedMaterializations)
	fmt.Fprintf(h, "cache|%d|%d|%d|%d\n", r.ServedFromCache, r.BatchedFollowers,
		r.CacheHitBytes, r.OpenRejected)
	fmt.Fprintf(h, "latency|%d|%s|%s|%s|%s\n", r.Latency.N(), ftoa(r.Latency.Mean()),
		ftoa(r.Latency.Min()), ftoa(r.Latency.Max()), ftoa(r.Latency.StdDev()))
}

func ftoa(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
