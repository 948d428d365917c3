package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// NodeStatus is one member's row in the /clusterz control-plane view,
// read from its /stats endpoint.
type NodeStatus struct {
	ID string `json:"id"`
	// Err is the poll failure, "" when the node answered. A failed node
	// still gets a row — an operator looking at /clusterz during an
	// outage needs to see who is missing, not a shorter table.
	Err string `json:"err,omitempty"`
	// OwnershipShare is the node's fraction of the hash-ring key space.
	OwnershipShare float64 `json:"ownership_share"`

	UptimeSeconds float64 `json:"uptime_seconds,omitempty"`
	Requests      uint64  `json:"requests"`
	Rejected      uint64  `json:"rejected"`
	Timeouts      uint64  `json:"timeouts"`
	ShapesDone    uint64  `json:"shapes_done"`
	QueueDepth    int     `json:"queue_depth"`
	QueueCapacity int     `json:"queue_capacity"`
	Workers       int     `json:"workers"`
	Inflight      int     `json:"inflight"`
	// CacheHitRate is hits/(hits+misses) of the node's shape-cache
	// shard; 0 when the node has seen no lookups.
	CacheHitRate float64 `json:"cache_hit_rate"`
	CacheEntries int     `json:"cache_entries"`
	// P50MS/P99MS are request-latency quantiles estimated from the
	// node's fracd_request_duration_seconds histogram, all endpoints
	// aggregated.
	P50MS float64 `json:"p50_ms"`
	P99MS float64 `json:"p99_ms"`
	// TracesRetained is the node's /debug/traces retention count.
	TracesRetained int `json:"traces_retained,omitempty"`
}

// ClusterStatus is the aggregated control-plane view of the cluster.
type ClusterStatus struct {
	Nodes []NodeStatus `json:"nodes"`
	// Client-side routing totals (this client's perspective).
	Retries   uint64 `json:"retries"`
	Hedges    uint64 `json:"hedges"`
	Failovers uint64 `json:"failovers"`
	Dedups    uint64 `json:"singleflight_dedups"`
	// PolledMS is how long the fan-out poll took.
	PolledMS float64 `json:"polled_ms"`
}

// ClusterStatus polls every ring member's /stats concurrently and
// aggregates the control-plane view. Per-node failures are reported in
// the node rows, never as a call error.
func (c *Client) ClusterStatus(ctx context.Context) *ClusterStatus {
	start := time.Now()
	ids := c.Nodes()
	share := c.ring.OwnershipShare()
	rows := make([]NodeStatus, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			rows[i] = c.pollNode(ctx, id, share[id])
		}(i, id)
	}
	wg.Wait()
	retries, hedges, failovers, dedups := c.CounterValues()
	return &ClusterStatus{
		Nodes:     rows,
		Retries:   uint64(retries),
		Hedges:    uint64(hedges),
		Failovers: uint64(failovers),
		Dedups:    uint64(dedups),
		PolledMS:  float64(time.Since(start)) / float64(time.Millisecond),
	}
}

// pollNode builds one node's status row.
func (c *Client) pollNode(ctx context.Context, id string, share float64) NodeStatus {
	row := NodeStatus{ID: id, OwnershipShare: share}
	st, err := c.NodeStats(ctx, id)
	if err != nil {
		row.Err = err.Error()
		return row
	}
	row.UptimeSeconds = st.UptimeSeconds
	row.Requests = st.Requests
	row.Rejected = st.Rejected
	row.Timeouts = st.Timeouts
	row.ShapesDone = st.ShapesDone
	row.QueueDepth = st.QueueDepth
	row.QueueCapacity = st.QueueCapacity
	row.Workers = st.Workers
	row.Inflight = st.Inflight
	row.TracesRetained = st.TracesRetained
	row.P50MS, row.P99MS = st.P50MS, st.P99MS
	row.CacheEntries = st.Cache.Entries
	if total := st.Cache.Hits + st.Cache.Misses; total > 0 {
		row.CacheHitRate = float64(st.Cache.Hits) / float64(total)
	}
	return row
}

// StatusHandler serves the /clusterz view of a cluster client: JSON by
// default, a fixed-width table with ?format=text.
func StatusHandler(c *Client) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.WriteHeader(http.StatusMethodNotAllowed)
			return
		}
		cs := c.ClusterStatus(r.Context())
		if r.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			WriteStatusText(w, cs)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(cs)
	})
}

// WriteStatusText renders the cluster view as a fixed-width table.
func WriteStatusText(w io.Writer, cs *ClusterStatus) {
	rows := append([]NodeStatus(nil), cs.Nodes...)
	sort.Slice(rows, func(a, b int) bool { return rows[a].ID < rows[b].ID })
	fmt.Fprintf(w, "%-12s %7s %9s %8s %6s %9s %8s %8s %8s  %s\n",
		"node", "share", "requests", "shapes", "queue", "inflight", "hitrate", "p50", "p99", "err")
	for _, n := range rows {
		fmt.Fprintf(w, "%-12s %6.1f%% %9d %8d %3d/%-3d %9d %7.1f%% %7.2fms %7.2fms  %s\n",
			n.ID, n.OwnershipShare*100, n.Requests, n.ShapesDone,
			n.QueueDepth, n.QueueCapacity, n.Inflight,
			n.CacheHitRate*100, n.P50MS, n.P99MS, n.Err)
	}
	fmt.Fprintf(w, "routing: retries=%d hedges=%d failovers=%d dedups=%d (polled in %.1fms)\n",
		cs.Retries, cs.Hedges, cs.Failovers, cs.Dedups, cs.PolledMS)
}
