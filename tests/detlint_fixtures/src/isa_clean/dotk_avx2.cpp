// ISA fixture (clean pair, variant half): compiled with -ffp-contract=off
// per the fixture compile_commands.json. Must stay silent.
namespace fixdotk {

double fxd_dot_avx2(const double* a, const double* b, int n) {
  double s = 0.0;
  for (int i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

}  // namespace fixdotk
