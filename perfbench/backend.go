package main

import (
	"context"
	"math/rand"

	"mqxgo/internal/fhe"
)

// tracedBackend is a forwarding fhe.Backend that records a span around
// every call doing ring work, so the traced run sees the backend calls the
// scheme and the server make. Cheap accessors forward without a span.
type tracedBackend struct {
	inner fhe.Backend
	tr    *tracer
}

// wrapBackend returns inner behind a tracing forwarder that implements
// fhe.DeadlineBackend, fhe.RotateDeadlineBackend and fhe.NoiseModeler
// exactly when inner does, so the scheme and the server take the same
// code paths traced and untraced.
func wrapBackend(inner fhe.Backend, tr *tracer) fhe.Backend {
	b := &tracedBackend{inner: inner, tr: tr}
	dl, isDL := inner.(fhe.DeadlineBackend)
	rd, isRD := inner.(fhe.RotateDeadlineBackend)
	nm, isNM := inner.(fhe.NoiseModeler)
	d := tracedDeadline{b, dl}
	r := tracedRotate{b, rd}
	n := tracedNoise{nm}
	switch {
	case isDL && isRD && isNM:
		return struct {
			*tracedBackend
			tracedDeadline
			tracedRotate
			tracedNoise
		}{b, d, r, n}
	case isDL && isRD:
		return struct {
			*tracedBackend
			tracedDeadline
			tracedRotate
		}{b, d, r}
	case isDL && isNM:
		return struct {
			*tracedBackend
			tracedDeadline
			tracedNoise
		}{b, d, n}
	case isRD && isNM:
		return struct {
			*tracedBackend
			tracedRotate
			tracedNoise
		}{b, r, n}
	case isDL:
		return struct {
			*tracedBackend
			tracedDeadline
		}{b, d}
	case isRD:
		return struct {
			*tracedBackend
			tracedRotate
		}{b, r}
	case isNM:
		return struct {
			*tracedBackend
			tracedNoise
		}{b, n}
	default:
		return b
	}
}

// open starts a backend span under the workload loop's current span.
func (b *tracedBackend) open(name string) uint64 {
	if b.tr == nil {
		return 0
	}
	trace, parent := b.tr.current()
	return b.tr.begin(name, parent, trace)
}

// openCtx starts a backend span under the span ctx carries.
func (b *tracedBackend) openCtx(ctx context.Context, name string) uint64 {
	if b.tr == nil {
		return 0
	}
	trace, parent := b.tr.requestSpan(ctx)
	return b.tr.begin(name, parent, trace)
}

func (b *tracedBackend) Name() string                            { return b.inner.Name() }
func (b *tracedBackend) N() int                                  { return b.inner.N() }
func (b *tracedBackend) PlainModulus() uint64                    { return b.inner.PlainModulus() }
func (b *tracedBackend) Levels() int                             { return b.inner.Levels() }
func (b *tracedBackend) DeltaBits(level int) int                 { return b.inner.DeltaBits(level) }
func (b *tracedBackend) SecretAt(level int, s fhe.Poly) fhe.Poly { return b.inner.SecretAt(level, s) }

func (b *tracedBackend) NewPoly() fhe.Poly {
	defer b.tr.end(b.open("backend.NewPoly"))
	return b.inner.NewPoly()
}

func (b *tracedBackend) NewPolyAt(level int) fhe.Poly {
	defer b.tr.end(b.open("backend.NewPolyAt"))
	return b.inner.NewPolyAt(level)
}

func (b *tracedBackend) Copy(a fhe.Poly) fhe.Poly {
	defer b.tr.end(b.open("backend.Copy"))
	return b.inner.Copy(a)
}

func (b *tracedBackend) CheckCiphertext(ct fhe.BackendCiphertext) error {
	defer b.tr.end(b.open("backend.CheckCiphertext"))
	return b.inner.CheckCiphertext(ct)
}

func (b *tracedBackend) CheckPoly(level int, a fhe.Poly) error {
	defer b.tr.end(b.open("backend.CheckPoly"))
	return b.inner.CheckPoly(level, a)
}

func (b *tracedBackend) Add(level int, dst, x, y fhe.Poly) {
	defer b.tr.end(b.open("backend.Add"))
	b.inner.Add(level, dst, x, y)
}

func (b *tracedBackend) Sub(level int, dst, x, y fhe.Poly) {
	defer b.tr.end(b.open("backend.Sub"))
	b.inner.Sub(level, dst, x, y)
}

func (b *tracedBackend) Neg(level int, dst, x fhe.Poly) {
	defer b.tr.end(b.open("backend.Neg"))
	b.inner.Neg(level, dst, x)
}

func (b *tracedBackend) MulNegacyclic(level int, dst, x, y fhe.Poly) {
	defer b.tr.end(b.open("backend.MulNegacyclic"))
	b.inner.MulNegacyclic(level, dst, x, y)
}

func (b *tracedBackend) ToNTT(level int, dst, x fhe.Poly) {
	defer b.tr.end(b.open("backend.ToNTT"))
	b.inner.ToNTT(level, dst, x)
}

func (b *tracedBackend) ToCoeff(level int, dst, x fhe.Poly) {
	defer b.tr.end(b.open("backend.ToCoeff"))
	b.inner.ToCoeff(level, dst, x)
}

func (b *tracedBackend) PMul(level int, dst, x, y fhe.Poly) {
	defer b.tr.end(b.open("backend.PMul"))
	b.inner.PMul(level, dst, x, y)
}

func (b *tracedBackend) ScalarMul(level int, dst, x fhe.Poly, k uint64) {
	defer b.tr.end(b.open("backend.ScalarMul"))
	b.inner.ScalarMul(level, dst, x, k)
}

func (b *tracedBackend) SampleUniform(dst fhe.Poly, rng *rand.Rand) {
	defer b.tr.end(b.open("backend.SampleUniform"))
	b.inner.SampleUniform(dst, rng)
}

func (b *tracedBackend) SetSigned(dst fhe.Poly, coeffs []int64) {
	defer b.tr.end(b.open("backend.SetSigned"))
	b.inner.SetSigned(dst, coeffs)
}

func (b *tracedBackend) AddDeltaMsg(level int, dst, x fhe.Poly, msg []uint64) {
	defer b.tr.end(b.open("backend.AddDeltaMsg"))
	b.inner.AddDeltaMsg(level, dst, x, msg)
}

func (b *tracedBackend) RoundToPlain(level int, x fhe.Poly) []uint64 {
	defer b.tr.end(b.open("backend.RoundToPlain"))
	return b.inner.RoundToPlain(level, x)
}

func (b *tracedBackend) NoiseBits(level int, x fhe.Poly, msg []uint64) int {
	defer b.tr.end(b.open("backend.NoiseBits"))
	return b.inner.NoiseBits(level, x, msg)
}

func (b *tracedBackend) RelinKeyGen(s fhe.Poly, rng *rand.Rand) fhe.BackendRelinKey {
	defer b.tr.end(b.open("backend.RelinKeyGen"))
	return b.inner.RelinKeyGen(s, rng)
}

func (b *tracedBackend) GaloisKeyGen(s fhe.Poly, rng *rand.Rand) fhe.BackendGaloisKey {
	defer b.tr.end(b.open("backend.GaloisKeyGen"))
	return b.inner.GaloisKeyGen(s, rng)
}

func (b *tracedBackend) MulCt(dst *fhe.BackendCiphertext, ct1, ct2 fhe.BackendCiphertext, rlk fhe.BackendRelinKey) error {
	defer b.tr.end(b.open("backend.MulCt"))
	return b.inner.MulCt(dst, ct1, ct2, rlk)
}

func (b *tracedBackend) ModSwitch(dst *fhe.BackendCiphertext, ct fhe.BackendCiphertext) error {
	defer b.tr.end(b.open("backend.ModSwitch"))
	return b.inner.ModSwitch(dst, ct)
}

func (b *tracedBackend) RotateSlots(dst *fhe.BackendCiphertext, ct fhe.BackendCiphertext, steps int, gk fhe.BackendGaloisKey) error {
	defer b.tr.end(b.open("backend.RotateSlots"))
	return b.inner.RotateSlots(dst, ct, steps, gk)
}

func (b *tracedBackend) Conjugate(dst *fhe.BackendCiphertext, ct fhe.BackendCiphertext, gk fhe.BackendGaloisKey) error {
	defer b.tr.end(b.open("backend.Conjugate"))
	return b.inner.Conjugate(dst, ct, gk)
}

// tracedDeadline forwards fhe.DeadlineBackend; the spans share their
// names with the context-free calls so one metric covers both.
type tracedDeadline struct {
	b     *tracedBackend
	inner fhe.DeadlineBackend
}

func (d tracedDeadline) MulCtCtx(ctx context.Context, dst *fhe.BackendCiphertext, ct1, ct2 fhe.BackendCiphertext, rlk fhe.BackendRelinKey) error {
	defer d.b.tr.end(d.b.openCtx(ctx, "backend.MulCt"))
	return d.inner.MulCtCtx(ctx, dst, ct1, ct2, rlk)
}

func (d tracedDeadline) ModSwitchCtx(ctx context.Context, dst *fhe.BackendCiphertext, ct fhe.BackendCiphertext) error {
	defer d.b.tr.end(d.b.openCtx(ctx, "backend.ModSwitch"))
	return d.inner.ModSwitchCtx(ctx, dst, ct)
}

// tracedRotate forwards fhe.RotateDeadlineBackend.
type tracedRotate struct {
	b     *tracedBackend
	inner fhe.RotateDeadlineBackend
}

func (r tracedRotate) RotateSlotsCtx(ctx context.Context, dst *fhe.BackendCiphertext, ct fhe.BackendCiphertext, steps int, gk fhe.BackendGaloisKey) error {
	defer r.b.tr.end(r.b.openCtx(ctx, "backend.RotateSlots"))
	return r.inner.RotateSlotsCtx(ctx, dst, ct, steps, gk)
}

func (r tracedRotate) ConjugateCtx(ctx context.Context, dst *fhe.BackendCiphertext, ct fhe.BackendCiphertext, gk fhe.BackendGaloisKey) error {
	defer r.b.tr.end(r.b.openCtx(ctx, "backend.Conjugate"))
	return r.inner.ConjugateCtx(ctx, dst, ct, gk)
}

// tracedNoise forwards fhe.NoiseModeler; it does no ring work.
type tracedNoise struct{ inner fhe.NoiseModeler }

func (n tracedNoise) MulNoiseModel(level int) (digits, digitBits, overshoot int) {
	return n.inner.MulNoiseModel(level)
}
