// Negative compile test for the [[nodiscard]] Status / Result contract
// (src/util/status.h). This TU is NEVER linked into the suite: under GCC,
// tests/CMakeLists.txt registers a WILL_FAIL ctest that runs
// `g++ -fsyntax-only -Werror=unused-result ...` over it — the build fails,
// which is the pass condition. Each call below drops its Status / Result on
// the floor. This is the compiler's half of the unchecked-Status contract;
// metrolint's unchecked-status pass audits only the `(void)` escapes.

#include "util/status.h"

metro::Status Flush() { return metro::Status::Ok(); }
metro::Result<int> Count() { return 1; }

int main() {
  Flush();  // bare-discarded Status
  Count();  // bare-discarded Result
  return 0;
}
