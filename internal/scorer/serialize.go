package scorer

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"

	"elsi/internal/nn"
)

// scorerWire is the gob wire form of a trained Scorer.
type scorerWire struct {
	Build []byte
	Query []byte
}

// MarshalBinary implements encoding.BinaryMarshaler so a trained
// scorer — the expensive offline preparation of Section VII-B2 — can
// be persisted and reused across runs and data sets, as the paper
// prescribes ("once learned, the ELSI method selector ... can be
// reused for different data sets"). It waits for training to end and
// refuses a scorer whose training was cancelled or failed.
func (s *Scorer) MarshalBinary() ([]byte, error) {
	s.wait()
	if s.err != nil {
		return nil, s.err
	}
	b, err := s.buildNet.MarshalBinary()
	if err != nil {
		return nil, err
	}
	q, err := s.queryNet.MarshalBinary()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(scorerWire{Build: b, Query: q}); err != nil {
		return nil, fmt.Errorf("scorer: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (s *Scorer) UnmarshalBinary(data []byte) error {
	var wire scorerWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&wire); err != nil {
		return fmt.Errorf("scorer: decode: %w", err)
	}
	s.buildNet = new(nn.Network)
	if err := s.buildNet.UnmarshalBinary(wire.Build); err != nil {
		return err
	}
	s.queryNet = new(nn.Network)
	return s.queryNet.UnmarshalBinary(wire.Query)
}

// Save writes the trained scorer to path.
func (s *Scorer) Save(path string) error {
	data, err := s.MarshalBinary()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Load reads a trained scorer from path.
func Load(path string) (*Scorer, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := new(Scorer)
	if err := s.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return s, nil
}

// SaveSamples persists ground-truth samples alongside a scorer so the
// comparator studies (Figure 6b) can rerun without regenerating them.
func SaveSamples(path string, samples []Sample) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(samples); err != nil {
		return fmt.Errorf("scorer: encode samples: %w", err)
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// LoadSamples reads persisted ground-truth samples.
func LoadSamples(path string) ([]Sample, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var samples []Sample
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&samples); err != nil {
		return nil, fmt.Errorf("scorer: decode samples: %w", err)
	}
	return samples, nil
}
