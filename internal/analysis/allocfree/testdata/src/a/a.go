// Package a exercises the allocfree analyzer's single-package rules:
// allocating constructs inside //snap:alloc-free bodies, the callee
// contract, the cold-path exemption, and //snaplint:ignore waivers.
package a

import (
	"fmt"
	"strconv"
)

type point struct{ x, y int }

//snap:alloc-free
func addTo(dst, a, b []float64) {
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

//snap:alloc-free
func callsAnnotated(dst, a, b []float64) {
	addTo(dst, a, b) // ok: callee is annotated
}

//snap:allocs-amortized
func grow(buf []byte, n int) []byte {
	if cap(buf) < n {
		buf = make([]byte, n) // amortized bodies are not checked
	}
	return buf[:n]
}

//snap:alloc-free
func callsAmortized(buf []byte) int {
	buf = grow(buf, 16) // ok: amortized callees are trusted
	return len(buf)
}

func helper() {}

//snap:alloc-free
func badCall() {
	helper() // want `call to helper is not alloc-free`
}

//snap:alloc-free
func badLiterals(n int) {
	m := map[int]int{} // want `map literal allocates`
	_ = m
	s := []int{1, 2} // want `slice literal allocates`
	_ = s
	p := &point{1, 2} // want `address-taken composite literal escapes`
	_ = p
	b := make([]byte, n) // want `make allocates`
	_ = b
	q := new(point) // want `new allocates`
	_ = q
	v := point{3, 4} // ok: value struct literal stays on the stack
	_ = v
}

//snap:alloc-free
func badAppend(xs, ys []int) int {
	zs := append(xs, 1)        // want `append result is not reassigned to its first argument`
	xs = append(xs, 2)         // ok: self-append fill idiom
	xs = append(xs[:0], ys...) // ok: reset-and-fill
	return len(zs) + len(xs)
}

//snap:alloc-free
func badClosure(k int) int {
	f := func() int { return k } // want `closure captures k`
	return f()                   // want `call through a function value cannot be proven alloc-free`
}

//snap:alloc-free
func okClosure(dst []int) {
	func(xs []int) { // ok: captures nothing, invoked in place
		for i := range xs {
			xs[i] = 0
		}
	}(dst)
}

//snap:alloc-free
func badConcat(a, b string) string {
	return a + b // want `string concatenation allocates`
}

//snap:alloc-free
func badConv(bs []byte, s string) int {
	t := string(bs) // want `conversion to string allocates`
	u := []byte(s)  // want `conversion from string to \[\]byte allocates`
	return len(t) + len(u)
}

//snap:alloc-free
func sink(v any) {}

//snap:alloc-free
func boxing(x int, p *point, e error) {
	sink(x)   // want `argument boxed into interface any`
	sink(p)   // ok: pointers ride in the interface word
	sink(nil) // ok
	sink(7)   // ok: constants are interned by the compiler
	sink(e)   // ok: already an interface
}

//snap:alloc-free
func sum(xs ...int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

//snap:alloc-free
func variadic(xs []int) int {
	a := sum(1, 2, 3) // want `variadic call to sum allocates its argument slice`
	b := sum(xs...)   // ok: spread reuses the existing slice
	c := sum()        // ok: no elements passes nil
	return a + b + c
}

//snap:alloc-free
func badGo() {
	go func() {}() // want `go statement allocates a goroutine`
}

//snap:alloc-free
func coldPathsExempt(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("empty input of %d values", len(xs)) // ok: block ends in return
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s, nil
}

type Model interface {
	//snap:alloc-free
	GradTo(dst []float64)

	Loss() float64
}

//snap:alloc-free
func useModel(m Model, dst []float64) float64 {
	m.GradTo(dst)   // ok: interface method carries the contract
	return m.Loss() // want `call to Loss is not alloc-free`
}

//snap:alloc-free
func waived(n int) {
	_ = make([]int, n) //snaplint:ignore allocfree exercised once at startup, not in the round loop
}

//snap:alloc-free
func stdlibSafelist(dst []byte, s string, n int64) ([]byte, float64) {
	v, err := strconv.ParseFloat(s, 64) // ok: allocates only its error
	if err != nil {
		return dst, 0
	}
	dst = strconv.AppendInt(dst, n, 10)        // ok: fills caller capacity
	dst = append(dst, strconv.Itoa(int(n))...) // want `call to Itoa is not alloc-free`
	return dst, v
}
