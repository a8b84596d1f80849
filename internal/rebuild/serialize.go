package rebuild

import (
	"os"

	"elsi/internal/nn"
)

// MarshalBinary implements encoding.BinaryMarshaler so the rebuild
// predictor — like the method scorer, an offline one-off training —
// can be persisted and reused. It waits for training to end and
// refuses a predictor whose training was cancelled or failed.
func (p *Predictor) MarshalBinary() ([]byte, error) {
	p.Wait()
	if p.err != nil {
		return nil, p.err
	}
	return p.net.MarshalBinary()
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (p *Predictor) UnmarshalBinary(data []byte) error {
	p.net = new(nn.Network)
	return p.net.UnmarshalBinary(data)
}

// Save writes the predictor to path.
func (p *Predictor) Save(path string) error {
	data, err := p.MarshalBinary()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadPredictor reads a predictor from path.
func LoadPredictor(path string) (*Predictor, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p := new(Predictor)
	if err := p.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return p, nil
}
