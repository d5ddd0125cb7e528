package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"time"

	"mass/internal/blog"
	"mass/internal/cluster"
	"mass/internal/core"
)

// postRequest is one new post (POST /api/v1/posts).
type postRequest struct {
	ID     blog.PostID    `json:"id"`
	Author blog.BloggerID `json:"author"`
	Title  string         `json:"title"`
	Body   string         `json:"body"`
	Posted time.Time      `json:"posted"`
	Tags   []string       `json:"tags"`
}

// commentRequest is one new comment (POST /api/v1/comments).
type commentRequest struct {
	Post      blog.PostID    `json:"post"`
	Commenter blog.BloggerID `json:"commenter"`
	Text      string         `json:"text"`
	Posted    time.Time      `json:"posted"`
}

// linkRequest is one new hyperlink (POST /api/v1/links).
type linkRequest struct {
	From blog.BloggerID `json:"from"`
	To   blog.BloggerID `json:"to"`
}

// ingestResponse acknowledges accepted mutations. Accepted data becomes
// visible to reads after the next re-analysis; Seq identifies the current
// snapshot generation at acknowledgment time.
type ingestResponse struct {
	Accepted int    `json:"accepted"`
	Pending  int    `json:"pending"`
	Seq      uint64 `json:"seq"`
}

// maxBodyBytes caps request bodies; a runaway client must not be able to
// buffer gigabytes into server memory.
const maxBodyBytes = 8 << 20

// readBody drains a size-capped request body.
func readBody(r *http.Request) ([]byte, *apiError) {
	data, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, errf(http.StatusRequestEntityTooLarge, ErrCodePayloadTooLarge,
				"request body exceeds %d bytes", maxBodyBytes)
		}
		return nil, errf(http.StatusBadRequest, ErrCodeBadJSON, "reading body: %v", err)
	}
	return data, nil
}

// strictUnmarshal decodes JSON with unknown fields rejected: a typo in a
// field name is a schema violation (invalid_body), not a silently dropped
// value; anything else that fails to decode stays bad_json.
func strictUnmarshal(data []byte, v any) *apiError {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if strings.Contains(err.Error(), "unknown field") {
			return errf(http.StatusBadRequest, ErrCodeInvalidBody, "invalid body: %v", err)
		}
		return errf(http.StatusBadRequest, ErrCodeBadJSON, "bad JSON: %v", err)
	}
	if dec.More() {
		return errf(http.StatusBadRequest, ErrCodeBadJSON, "bad JSON: trailing data after the body")
	}
	return nil
}

// decodeOneOrMany decodes the request body into *T or []T depending on
// the leading token, returning the slice either way. strict enables the
// v1 unknown-field rejection; the legacy aliases keep the tolerant
// pre-v1 decoding.
func decodeOneOrMany[T any](r *http.Request, strict bool) ([]T, *apiError) {
	data, aerr := readBody(r)
	if aerr != nil {
		return nil, aerr
	}
	unmarshal := func(v any) *apiError {
		if strict {
			return strictUnmarshal(data, v)
		}
		if err := json.Unmarshal(data, v); err != nil {
			return errf(http.StatusBadRequest, ErrCodeBadJSON, "bad JSON: %v", err)
		}
		return nil
	}
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '[' {
		var many []T
		if aerr := unmarshal(&many); aerr != nil {
			return nil, aerr
		}
		return many, nil
	}
	var one T
	if aerr := unmarshal(&one); aerr != nil {
		return nil, aerr
	}
	return []T{one}, nil
}

// decodeFunc turns a request body into an engine batch; one per ingestion
// endpoint, shared by the v1 (strict) and legacy (tolerant) handlers.
type decodeFunc func(r *http.Request, strict bool) (core.Batch, int, *apiError)

func decodePosts(r *http.Request, strict bool) (core.Batch, int, *apiError) {
	reqs, aerr := decodeOneOrMany[postRequest](r, strict)
	if aerr != nil {
		return core.Batch{}, 0, aerr
	}
	batch := core.Batch{}
	for _, pr := range reqs {
		batch.Posts = append(batch.Posts, &blog.Post{
			ID: pr.ID, Author: pr.Author, Title: pr.Title,
			Body: pr.Body, Posted: pr.Posted, Tags: pr.Tags,
		})
	}
	return batch, len(reqs), nil
}

func decodeComments(r *http.Request, strict bool) (core.Batch, int, *apiError) {
	reqs, aerr := decodeOneOrMany[commentRequest](r, strict)
	if aerr != nil {
		return core.Batch{}, 0, aerr
	}
	batch := core.Batch{}
	for _, cr := range reqs {
		batch.Comments = append(batch.Comments, core.BatchComment{
			Post: cr.Post,
			Comment: blog.Comment{
				Commenter: cr.Commenter, Text: cr.Text, Posted: cr.Posted,
			},
		})
	}
	return batch, len(reqs), nil
}

func decodeLinks(r *http.Request, strict bool) (core.Batch, int, *apiError) {
	reqs, aerr := decodeOneOrMany[linkRequest](r, strict)
	if aerr != nil {
		return core.Batch{}, 0, aerr
	}
	batch := core.Batch{}
	for _, lr := range reqs {
		batch.Links = append(batch.Links, blog.Link{From: lr.From, To: lr.To})
	}
	return batch, len(reqs), nil
}

// ingest runs the shared mutation path: decode, route the batch through
// the cluster's ring (a pass-through at one shard), and report the
// acknowledgment.
func (s *Server) ingest(dec decodeFunc, r *http.Request, strict bool) (ingestResponse, *apiError) {
	batch, accepted, aerr := dec(r, strict)
	if aerr != nil {
		return ingestResponse{}, aerr
	}
	if err := s.cluster.AddBatch(batch); err != nil {
		// A quarantined shard whose spill queue saturated sheds the write:
		// 429 with a Retry-After hint, so well-behaved clients back off
		// while the supervisor restarts and drains the shard.
		var ov *cluster.OverloadError
		if errors.As(err, &ov) {
			aerr := errf(http.StatusTooManyRequests, ErrCodeOverloaded, "%v", err)
			aerr.retryAfter = int((ov.RetryAfter + time.Second - 1) / time.Second)
			if aerr.retryAfter < 1 {
				aerr.retryAfter = 1
			}
			return ingestResponse{}, aerr
		}
		return ingestResponse{}, errf(http.StatusBadRequest, ErrCodeValidation, "%v", err)
	}
	pending, seq := s.cluster.Progress()
	return ingestResponse{Accepted: accepted, Pending: pending, Seq: seq}, nil
}

// v1Ingest wraps an ingestion endpoint in the v1 envelope: 202 Accepted
// with the acknowledgment as data and the current seq in meta.
func (s *Server) v1Ingest(dec decodeFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ack, aerr := s.ingest(dec, r, true)
		if aerr != nil {
			writeAPIError(w, aerr)
			return
		}
		writeEnvelope(w, http.StatusAccepted, Envelope{Data: ack, Meta: &Meta{Seq: ack.Seq}})
	}
}

// legacyIngest preserves the pre-v1 acknowledgment: a bare 202 JSON body
// and plain-text errors.
func (s *Server) legacyIngest(dec decodeFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ack, aerr := s.ingest(dec, r, false)
		if aerr != nil {
			http.Error(w, aerr.Message, aerr.status)
			return
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(ack); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		w.Write(buf.Bytes())
	}
}

// decodeLegacyBody is the pre-v1 single-object body decoder: bounded, with
// the original plain-text "bad JSON" error.
func decodeLegacyBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v); err != nil {
		http.Error(w, "bad JSON: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}
