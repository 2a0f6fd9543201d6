// expect: ISA002 (this pair's compile_commands.json entries omit -ffp-contract=off)
// ISA fixture (deficient pair, portable half). The pair's entries in the
// fixture compile_commands.json lack -ffp-contract=off, so ISA002 fires at
// line 1 of BOTH TUs.
namespace fixknl {
namespace portable {

void fxk_scale(double* x, int n) {
  for (int i = 0; i < n; ++i) x[i] *= 2.0;
}

}  // namespace portable
}  // namespace fixknl
