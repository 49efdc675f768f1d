package main

// The benchmark's own HTTP client. It is deliberately independent of
// internal/load, so a change there cannot change the measurement. Each
// client owns one keep-alive connection; every answer is checked.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/admit"
)

var errMismatch = errors.New("answer does not match the oracle")

type client struct {
	base string
	hc   *http.Client
	tr   *tracer // records client spans while tr.on; nil never traces
}

func newClient(addr string, tr *tracer) *client {
	return &client{
		base: "http://" + addr,
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        1,
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			IdleConnTimeout:     time.Minute,
			DisableCompression:  true,
		}},
		tr: tr,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// runEnvelope is the part of the front-end's /run JSON envelope the
// oracle checks.
type runEnvelope struct {
	ID       string   `json:"id"`
	Headline *float64 `json:"headline"`
	Findings []string `json:"findings"`
}

// get sends one interactive GET for v and checks the answer. deadline,
// when non-empty, is sent as X-Arch21-Deadline-MS.
func (c *client) get(v *variant, deadline string) error {
	req, err := http.NewRequest(http.MethodGet, c.base+v.path, nil)
	if err != nil {
		return err
	}
	if deadline != "" {
		req.Header.Set(admit.HeaderDeadlineMS, deadline)
	}
	var s span
	tracing := c.tr != nil && c.tr.on.Load()
	if tracing {
		s = span{kind: spanClient, id: c.tr.newID()}
		req.Header.Set(headerSpan, strconv.FormatUint(s.id, 10))
		s.start = c.tr.now()
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // fully read; nothing left to release
	if tracing {
		s.end = c.tr.now()
		c.tr.record(s)
	}
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d: %s", v.path, resp.StatusCode, bytes.TrimSpace(body))
	}
	var env runEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		return fmt.Errorf("GET %s: malformed envelope: %w", v.path, err)
	}
	if env.ID != v.id || !v.want.matches(env.Headline, env.Findings) {
		return fmt.Errorf("GET %s: %w", v.path, errMismatch)
	}
	return nil
}

// sweepLine is one streamed NDJSON line of POST /v1/sweep: a point, the
// final summary, or a terminal error.
type sweepLine struct {
	Point    *int     `json:"point"`
	Headline *float64 `json:"headline"`
	Findings []string `json:"findings"`
	Summary  *struct {
		Points int `json:"points"`
	} `json:"summary"`
	Error string `json:"error"`
}

// sweep posts one sweep and checks the stream: every point index exactly
// once, the sampled points against the oracle, and one summary line
// last with the grid size. onPoint runs as each point line arrives.
func (c *client) sweep(g *sweepGrid, onPoint func()) error {
	resp, err := c.hc.Post(c.base+"/v1/sweep", "application/json", bytes.NewReader(g.body))
	if err != nil {
		return err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
		_ = resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("POST /v1/sweep: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	seen := make([]bool, g.points)
	got, summary := 0, false
	dec := json.NewDecoder(resp.Body)
	for {
		var l sweepLine
		if err := dec.Decode(&l); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("sweep: malformed line: %w", err)
		}
		switch {
		case l.Error != "":
			return fmt.Errorf("sweep: stream error: %s", l.Error)
		case summary:
			return errors.New("sweep: line after the summary")
		case l.Summary != nil:
			if l.Summary.Points != g.points {
				return fmt.Errorf("sweep: summary reports %d points, want %d", l.Summary.Points, g.points)
			}
			summary = true
		case l.Point == nil || *l.Point < 0 || *l.Point >= g.points:
			return errors.New("sweep: point line without a valid index")
		case seen[*l.Point]:
			return fmt.Errorf("sweep: point %d streamed twice", *l.Point)
		default:
			i := *l.Point
			seen[i] = true
			got++
			if want, ok := g.sample[i]; ok && !want.matches(l.Headline, l.Findings) {
				return fmt.Errorf("sweep point %d: %w", i, errMismatch)
			}
			onPoint()
		}
	}
	if !summary || got != g.points {
		return fmt.Errorf("sweep: %d of %d points streamed (summary %v)", got, g.points, summary)
	}
	return nil
}
