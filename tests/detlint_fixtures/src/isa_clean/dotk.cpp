// ISA fixture (clean pair, portable half): both TUs of the pair carry
// -ffp-contract=off in the fixture compile_commands.json, so nothing may
// fire.
namespace fixdotk {

double fxd_dot_portable(const double* a, const double* b, int n) {
  double s = 0.0;
  for (int i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

}  // namespace fixdotk
