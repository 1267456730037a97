// Lint fixture for the test-only-api rule.  Never built.
#include "widget.h"

namespace privtree {

Widget::Widget() = default;

int Widget::OnlyTestsCallThis() const { return 1; }

int Widget::Helper() const { return 2; }

int Widget::Twin(int a) const { return Twin(a, 0); }

int Widget::Twin(int a, int b) const { return b == 0 ? a : Twin(a + b); }

int UsedByProduction() { return Widget().Helper(); }

}  // namespace privtree
