// expect: ISA002 (compiled without -ffp-contract=off)
// ISA fixture (deficient pair, variant half): the fixture
// compile_commands.json entry for this TU lacks -ffp-contract=off.
namespace fixknl {
namespace avx2 {

void fxk_scale(double* x, int n) {
  for (int i = 0; i < n; ++i) x[i] *= 2.0;
}

}  // namespace avx2
}  // namespace fixknl
