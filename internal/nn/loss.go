package nn

import (
	"fmt"
	"math"

	"chameleon/internal/tensor"
)

// CrossEntropy returns the negative log-likelihood of label under
// softmax(logits) and the gradient of the loss with respect to the logits
// (softmax − onehot).
func CrossEntropy[T tensor.Float](logits *tensor.Of[T], label int) (loss float64, grad *tensor.Of[T]) {
	grad = tensor.NewOf[T](logits.Len())
	loss = CrossEntropyInto(logits, label, grad)
	return loss, grad
}

// CrossEntropyInto is CrossEntropy writing the gradient into a caller-owned
// tensor (overwritten), so batched training loops can reuse one scratch
// gradient instead of allocating per sample. grad must have logits.Len()
// elements.
func CrossEntropyInto[T tensor.Float](logits *tensor.Of[T], label int, grad *tensor.Of[T]) (loss float64) {
	if logits.NDim() != 1 {
		panic(fmt.Sprintf("nn: CrossEntropy expects 1-D logits, got %v", logits.Shape()))
	}
	if label < 0 || label >= logits.Len() {
		panic(fmt.Sprintf("nn: label %d out of range for %d classes", label, logits.Len()))
	}
	if grad.Len() != logits.Len() {
		panic(fmt.Sprintf("nn: CrossEntropyInto grad size %d, want %d", grad.Len(), logits.Len()))
	}
	// The log-softmax lands directly in grad, which then exponentiates in
	// place — the whole loss is alloc-free for the caller's reused scratch.
	tensor.LogSoftmaxInto(grad, logits)
	gd := grad.Data()
	loss = -float64(gd[label])
	for i, v := range gd {
		gd[i] = T(math.Exp(float64(v)))
	}
	gd[label] -= 1
	return loss
}

// checkRows validates the shared shape contract of the row kernels: a 2-D
// [N, C] input, every companion tensor of the same element count, and
// per-row weights that are either nil or one per row. It returns N and C.
func checkRows[T tensor.Float](op string, logits *tensor.Of[T], weights []float64, same ...*tensor.Of[T]) (n, c int) {
	if logits.NDim() != 2 {
		panic(fmt.Sprintf("nn: %s expects 2-D logits, got %v", op, logits.Shape()))
	}
	n, c = logits.Dim(0), logits.Dim(1)
	for _, t := range same {
		if t.Len() != logits.Len() {
			panic(fmt.Sprintf("nn: %s operand size %d, want %d", op, t.Len(), logits.Len()))
		}
	}
	if weights != nil && len(weights) != n {
		panic(fmt.Sprintf("nn: %s got %d weights for %d rows", op, len(weights), n))
	}
	return n, c
}

// rowWeight returns row r's weight (1 when weights is nil).
func rowWeight(weights []float64, r int) float64 {
	if weights == nil {
		return 1
	}
	return weights[r]
}

// CrossEntropyRowsInto is CrossEntropyInto over a [N, C] logit matrix: row r
// is scored against labels[r] with weight weights[r] (nil: every row weighs
// 1), the per-row gradients (softmax − onehot, times the weight) land in the
// matching rows of grad, and the returned loss is the weighted sum over
// rows. grad must have logits' element count; grad == logits is allowed (the
// batched training path reuses the logit matrix as its gradient buffer). The
// per-row math is the 1-D kernel's exactly — same log-softmax, same exp —
// followed by the same in-place weight scaling a per-sample caller applies,
// and the loss sum accumulates in ascending row order, so the result is
// bit-identical to N per-sample CrossEntropyInto calls summed in stream
// order.
func CrossEntropyRowsInto[T tensor.Float](logits *tensor.Of[T], labels []int, weights []float64, grad *tensor.Of[T]) (loss float64) {
	n, c := checkRows("CrossEntropyRows", logits, weights, grad)
	if len(labels) != n {
		panic(fmt.Sprintf("nn: CrossEntropyRows got %d labels for %d rows", len(labels), n))
	}
	for r, label := range labels {
		if label < 0 || label >= c {
			panic(fmt.Sprintf("nn: label %d out of range for %d classes (row %d)", label, c, r))
		}
	}
	tensor.LogSoftmaxInto(grad, logits)
	gd := grad.Data()
	for r, label := range labels {
		row := gd[r*c : (r+1)*c]
		rowLoss := -float64(row[label])
		for i, v := range row {
			row[i] = T(math.Exp(float64(v)))
		}
		row[label] -= 1
		loss += scaleRow(row, rowLoss, rowWeight(weights, r))
	}
	return loss
}

// scaleRow applies a row weight to a finished per-row gradient in place and
// returns the weighted row loss. A unit weight leaves the row untouched.
func scaleRow[T tensor.Float](row []T, rowLoss, w float64) float64 {
	if w == 1 {
		return rowLoss
	}
	wt := T(w)
	for i := range row {
		row[i] *= wt
	}
	return rowLoss * w
}

// SoftCrossEntropyRowsInto is SoftCrossEntropyInto over [N, C] student and
// teacher matrices with a per-row weight (nil: 1): row r's gradient is
// exactly the 1-D kernel's gradient on that row times weights[r], and the
// returned loss is the weighted sum over rows in ascending order. Callers
// wanting Hinton's T² scaling fold it into the weights. grad and scratch
// must be [N, C] like student; scratch is clobbered with the softened
// teacher distribution, and grad must not alias student or teacher.
func SoftCrossEntropyRowsInto[T tensor.Float](student, teacher *tensor.Of[T], temperature float64, weights []float64, grad, scratch *tensor.Of[T]) (loss float64) {
	n, c := checkRows("SoftCrossEntropyRows", student, weights, teacher, grad, scratch)
	if !grad.SameShape(student) || !scratch.SameShape(student) {
		panic(fmt.Sprintf("nn: SoftCrossEntropyRows grad %v / scratch %v, want %v", grad.Shape(), scratch.Shape(), student.Shape()))
	}
	if temperature <= 0 {
		temperature = 1
	}
	invT := T(1 / temperature)
	gd, pd := grad.Data(), scratch.Data()
	sd, td := student.Data(), teacher.Data()
	for i := range gd {
		gd[i] = sd[i] * invT
		pd[i] = td[i] * invT
	}
	tensor.LogSoftmaxInto(grad, grad) // row-wise: grad = logQ
	tensor.SoftmaxInto(scratch, scratch)
	for r := 0; r < n; r++ {
		row, p := gd[r*c:(r+1)*c], pd[r*c:(r+1)*c]
		var rowLoss float64
		for i, logQ := range row {
			rowLoss -= float64(p[i]) * float64(logQ)
			row[i] = (T(math.Exp(float64(logQ))) - p[i]) * invT
		}
		loss += scaleRow(row, rowLoss, rowWeight(weights, r))
	}
	return loss
}

// MSELogitsRowsInto is MSELogitsInto over [N, C] logit and target matrices
// with a per-row weight (nil: 1): row r's gradient is exactly the 1-D
// kernel's gradient on that row times weights[r], and the returned loss is
// the weighted sum of the per-row mean squared errors in ascending row
// order. grad == logits is allowed.
func MSELogitsRowsInto[T tensor.Float](logits, target *tensor.Of[T], weights []float64, grad *tensor.Of[T]) (loss float64) {
	n, c := checkRows("MSELogitsRows", logits, weights, target, grad)
	ld, td, gd := logits.Data(), target.Data(), grad.Data()
	for r := 0; r < n; r++ {
		lo, hi := r*c, (r+1)*c
		var sum float64
		for i := lo; i < hi; i++ {
			d := ld[i] - td[i]
			sum += float64(d) * float64(d)
			gd[i] = 2 * d / T(c)
		}
		loss += scaleRow(gd[lo:hi], sum/float64(c), rowWeight(weights, r))
	}
	return loss
}

// SoftCrossEntropy is the knowledge-distillation loss: the cross-entropy of
// the temperature-softened teacher distribution p = softmax(teacher/T) under
// the student distribution q = softmax(student/T). It returns the loss and
// its exact gradient with respect to the student logits, (q−p)/T. Callers
// that want Hinton's conventional T² loss scaling (so soft and hard gradients
// stay commensurate as T grows) should multiply the gradient by T².
func SoftCrossEntropy[T tensor.Float](student, teacher *tensor.Of[T], temperature float64) (loss float64, grad *tensor.Of[T]) {
	grad = tensor.NewOf[T](student.Len())
	loss = SoftCrossEntropyInto(student, teacher, temperature, grad, tensor.NewOf[T](teacher.Len()))
	return loss, grad
}

// SoftCrossEntropyInto is SoftCrossEntropy writing the gradient into a
// caller-owned tensor (overwritten). scratch must match teacher in size and
// is clobbered with the softened teacher distribution; reusing both buffers
// makes the distillation step alloc-free.
func SoftCrossEntropyInto[T tensor.Float](student, teacher *tensor.Of[T], temperature float64, grad, scratch *tensor.Of[T]) (loss float64) {
	if student.Len() != teacher.Len() {
		panic(fmt.Sprintf("nn: SoftCrossEntropy size mismatch %v vs %v", student.Shape(), teacher.Shape()))
	}
	n := student.Len()
	if grad.Len() != n || scratch.Len() != n {
		panic(fmt.Sprintf("nn: SoftCrossEntropyInto grad size %d, scratch size %d, want %d", grad.Len(), scratch.Len(), n))
	}
	if temperature <= 0 {
		temperature = 1
	}
	invT := T(1 / temperature)
	gd, pd := grad.Data(), scratch.Data()
	for i := 0; i < n; i++ {
		gd[i] = student.Data()[i] * invT
		pd[i] = teacher.Data()[i] * invT
	}
	tensor.LogSoftmaxInto(grad, grad) // gd = logQ
	tensor.SoftmaxInto(scratch, scratch)
	for i := 0; i < n; i++ {
		logQ := gd[i]
		loss -= float64(pd[i]) * float64(logQ)
		gd[i] = (T(math.Exp(float64(logQ))) - pd[i]) * invT
	}
	return loss
}

// MSELogits is the Dark Experience Replay consistency loss: mean squared
// error between current logits and stored logits, with gradient.
func MSELogits[T tensor.Float](logits, target *tensor.Of[T]) (loss float64, grad *tensor.Of[T]) {
	grad = tensor.NewOf[T](logits.Len())
	loss = MSELogitsInto(logits, target, grad)
	return loss, grad
}

// MSELogitsInto is MSELogits writing the gradient into a caller-owned tensor
// (overwritten), for alloc-free replay steps.
func MSELogitsInto[T tensor.Float](logits, target, grad *tensor.Of[T]) (loss float64) {
	if logits.Len() != target.Len() {
		panic(fmt.Sprintf("nn: MSELogits size mismatch %v vs %v", logits.Shape(), target.Shape()))
	}
	n := logits.Len()
	if grad.Len() != n {
		panic(fmt.Sprintf("nn: MSELogitsInto grad size %d, want %d", grad.Len(), n))
	}
	gd := grad.Data()
	for i := 0; i < n; i++ {
		d := logits.Data()[i] - target.Data()[i]
		loss += float64(d) * float64(d)
		gd[i] = 2 * d / T(n)
	}
	return loss / float64(n)
}
