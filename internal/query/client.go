package query

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Client is the thin typed client over the service's wire model: the
// same JSON types the server speaks, plus error unwrapping. Safe for
// concurrent use.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient builds a client for a service base URL (e.g.
// "http://127.0.0.1:8733"). httpClient nil uses
// http.DefaultClient; per-query deadlines are carried in the request
// body and enforced server-side, so most callers need no client
// timeout beyond the context they pass.
func NewClient(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: httpClient}
}

// do performs one JSON round trip. in nil sends no body.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var e ErrorResponse
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&e); err == nil && e.Error != "" {
			return fmt.Errorf("query: %s %s: %s (http %d)", method, path, e.Error, resp.StatusCode)
		}
		return fmt.Errorf("query: %s %s: http %d", method, path, resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Slice runs one slice query.
func (c *Client) Slice(ctx context.Context, req *SliceRequest) (*SliceResponse, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	var resp SliceResponse
	if err := c.do(ctx, http.MethodPost, "/v1/slice", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Provenance runs one taint-provenance query.
func (c *Client) Provenance(ctx context.Context, req *ProvenanceRequest) (*ProvenanceResponse, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	var resp ProvenanceResponse
	if err := c.do(ctx, http.MethodPost, "/v1/provenance", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Stats fetches the service counters.
func (c *Client) Stats(ctx context.Context) (*StatsResponse, error) {
	var resp StatsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}
