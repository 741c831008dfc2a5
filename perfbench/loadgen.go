package main

import (
	"fmt"
	"io"
	"net/http"
	"time"
)

// readSample is one open-loop request.
type readSample struct {
	i    int
	lat  time.Duration // from the time the request was due to its reply
	late time.Duration // from the time it was due to the time it was sent
	err  error
}

// openLoop issues do(0), do(1), ... on a fixed schedule, one every interval
// from its start, until stop closes, and returns every request it made.
// Requests go out one at a time, so a stalled reply delays the requests due
// after it; timing each from its due time counts that wait, and the
// lateness shows how far behind schedule the generator fell.
func openLoop(stop <-chan struct{}, every time.Duration, do func(i int) error) []readSample {
	var out []readSample
	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * every)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-stop:
				return out
			case <-timer.C:
			}
		} else {
			select {
			case <-stop:
				return out
			default:
			}
		}
		sent := time.Now()
		err := do(i)
		out = append(out, readSample{i: i, lat: time.Since(due), late: sent.Sub(due), err: err})
	}
}

// get fetches url and fails on a transport error or a non-2xx reply.
func get(c *http.Client, url string) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return nil
}
