package explore

import (
	"math/rand"

	"dlsys/internal/nn"
	"dlsys/internal/quant"
	"dlsys/internal/tensor"
)

// Autoencoder compresses tabular rows through a narrow latent bottleneck:
// encoder → latent (quantized for storage) → decoder. On correlated columns
// the latent captures the shared factor, beating column-by-column
// compression at equal reconstruction error — the DeepSqueeze claim.
type Autoencoder struct {
	enc, dec  *nn.Network
	LatentDim int
}

// AEConfig controls training.
type AEConfig struct {
	InDim     int
	Hidden    int
	LatentDim int
	Epochs    int
	LR        float64
	BatchSize int
}

// TrainAutoencoder fits encoder and decoder jointly on x by MSE.
func TrainAutoencoder(rng *rand.Rand, x *tensor.Tensor, cfg AEConfig) *Autoencoder {
	enc := nn.NewNetwork(
		nn.NewDense(rng, "enc.fc0", cfg.InDim, cfg.Hidden),
		nn.NewTanh("enc.tanh0"),
		nn.NewDense(rng, "enc.fc1", cfg.Hidden, cfg.LatentDim),
		nn.NewTanh("enc.tanh1"),
	)
	dec := nn.NewNetwork(
		nn.NewDense(rng, "dec.fc0", cfg.LatentDim, cfg.Hidden),
		nn.NewTanh("dec.tanh0"),
		nn.NewDense(rng, "dec.fc1", cfg.Hidden, cfg.InDim),
	)
	opt := nn.NewAdam(cfg.LR)
	mse := nn.NewMSE()
	batches := nn.NewBatches(rng, x.Dim(0), cfg.BatchSize)
	params := append(enc.Params(), dec.Params()...)
	var bx *tensor.Tensor // batch buffer
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		batches.Epoch(func(idx []int) {
			bx = nn.GatherInto(bx, x, idx)
			nn.ZeroGrads(params)
			z := enc.Forward(bx, true)
			out := dec.Forward(z, true)
			mse.Forward(out, bx)
			dz := dec.Backward(mse.Backward())
			enc.Backward(dz)
			opt.Step(params)
		})
	}
	return &Autoencoder{enc: enc, dec: dec, LatentDim: cfg.LatentDim}
}

// Compress encodes rows, quantizes the latent at the given bit width, and
// returns the quantized latent plus the storage bytes (packed codes plus
// the decoder network, amortised over the rows). An out-of-range bit width
// is reported as an error.
func (ae *Autoencoder) Compress(x *tensor.Tensor, bits int) (latent *quant.Linear, bytes int64, err error) {
	z := ae.enc.Forward(x, false)
	latent, err = quant.QuantizeLinear(z, bits)
	if err != nil {
		return nil, 0, err
	}
	bytes = latent.Bytes() + ae.dec.ParamBytes(32)
	return latent, bytes, nil
}

// Decompress reconstructs rows from a quantized latent.
func (ae *Autoencoder) Decompress(latent *quant.Linear) *tensor.Tensor {
	return ae.dec.Forward(latent.Dequantize(), false)
}

// ReconstructionMSE measures mean squared error per value between the
// original and a reconstruction.
func ReconstructionMSE(orig, recon *tensor.Tensor) float64 {
	var s float64
	for i := range orig.Data {
		d := orig.Data[i] - recon.Data[i]
		s += d * d
	}
	return s / float64(orig.Size())
}

// ColumnQuantBaseline compresses each column independently with linear
// quantization + Huffman coding, returning total bytes and the
// reconstruction MSE — the classical baseline the autoencoder must beat on
// correlated data.
func ColumnQuantBaseline(x *tensor.Tensor, bits int) (bytes int64, mse float64, err error) {
	rows, cols := x.Dim(0), x.Dim(1)
	var se float64
	for c := 0; c < cols; c++ {
		col := tensor.New(rows)
		for r := 0; r < rows; r++ {
			col.Data[r] = x.At(r, c)
		}
		q, err := quant.QuantizeLinear(col, bits)
		if err != nil {
			return 0, 0, err
		}
		bytes += quant.HuffmanBytes(q.Codes) + 16
		back := q.Dequantize()
		for r := 0; r < rows; r++ {
			d := col.Data[r] - back.Data[r]
			se += d * d
		}
	}
	return bytes, se / float64(x.Size()), nil
}

// CorrelatedTable generates rows whose columns are all smooth functions of
// one latent factor plus small noise — maximally compressible jointly,
// poorly compressible column-by-column at high fidelity.
func CorrelatedTable(rng *rand.Rand, rows, cols int, noise float64) *tensor.Tensor {
	x := tensor.New(rows, cols)
	for r := 0; r < rows; r++ {
		t := rng.Float64()*2 - 1
		for c := 0; c < cols; c++ {
			v := t
			if c%2 == 1 {
				v = t * t
			}
			x.Set(v*float64(1+c%3)+noise*rng.NormFloat64(), r, c)
		}
	}
	return x
}
