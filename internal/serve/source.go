package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"github.com/snapml/snap/internal/model"
	"github.com/snapml/snap/internal/obs"
)

// LoadCheckpoint decodes a model.SaveParams stream and publishes it as
// the current snapshot, stamped with the given round and epoch. The
// parameter count must match the configured model; a mismatch (e.g. a
// checkpoint from a different architecture) is refused and counted.
func (g *Gateway) LoadCheckpoint(r io.Reader, round, epoch int) error {
	params, err := model.LoadParams(r)
	if err != nil {
		g.cfg.Obs.Counter(obs.Label(MServeSwapRejects, LReason, ReasonDecode)).Inc()
		return fmt.Errorf("serve: decode checkpoint: %w", err)
	}
	if len(params) != g.cfg.Model.NumParams() {
		g.cfg.Obs.Counter(obs.Label(MServeSwapRejects, LReason, ReasonDimMismatch)).Inc()
		return fmt.Errorf("serve: checkpoint has %d params, model %s wants %d",
			len(params), g.cfg.Model.Name(), g.cfg.Model.NumParams())
	}
	g.feed.Publish(round, epoch, params)
	return nil
}

// LoadCheckpointFile is LoadCheckpoint from a file path.
func (g *Gateway) LoadCheckpointFile(path string, round, epoch int) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("serve: open checkpoint: %w", err)
	}
	defer f.Close()
	return g.LoadCheckpoint(f, round, epoch)
}

// Follower polls a training node's /params endpoint (mounted on its
// observability server) and hot-loads every new snapshot into a gateway.
// Change detection rides the X-Snap-Have-Seq header, so an idle poll is
// a 304 with no parameter transfer.
type Follower struct {
	// URL is the node's observability base URL, e.g. "http://host:9090".
	URL string
	// Gateway receives the snapshots (required).
	Gateway *Gateway
	// Interval is the poll period (default 500ms).
	Interval time.Duration
	// Client is the HTTP client to poll with (default http.DefaultClient).
	Client *http.Client
	// Obs counts poll errors (nil-safe).
	Obs *obs.Observer

	lastSeq uint64 // accessed only by Run's goroutine
}

// Run polls until ctx is cancelled. Poll failures are counted and
// retried on the next tick — a serving gateway keeps answering from its
// last good snapshot while the trainer is away.
func (fw *Follower) Run(ctx context.Context) error {
	interval := fw.Interval
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		if err := fw.pollOnce(ctx); err != nil && ctx.Err() == nil {
			fw.Obs.Counter(MServePollErrors).Inc()
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
		}
	}
}

// pollOnce fetches the node's current snapshot if it changed since the
// last successful poll.
func (fw *Follower) pollOnce(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fw.URL+"/params", nil)
	if err != nil {
		return err
	}
	if fw.lastSeq > 0 {
		req.Header.Set(HeaderHaveSeq, fmt.Sprintf("%d", fw.lastSeq))
	}
	client := fw.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusNotModified:
		return nil
	case http.StatusServiceUnavailable:
		// Trainer up, nothing published yet.
		return nil
	case http.StatusOK:
	default:
		return fmt.Errorf("serve: poll %s: status %s", fw.URL, resp.Status)
	}
	round, epoch, seq := headerInt(resp, HeaderRound), headerInt(resp, HeaderEpoch), headerInt(resp, HeaderSeq)
	if err := fw.Gateway.LoadCheckpoint(resp.Body, round, epoch); err != nil {
		return err
	}
	if seq > 0 {
		fw.lastSeq = uint64(seq)
	} else {
		// No sequence header: force a re-fetch next tick rather than
		// silently pinning a stale snapshot.
		fw.lastSeq = 0
	}
	return nil
}

func headerInt(resp *http.Response, key string) int {
	var v int
	_, _ = fmt.Sscanf(resp.Header.Get(key), "%d", &v)
	return v
}
