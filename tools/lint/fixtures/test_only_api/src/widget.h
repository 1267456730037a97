// Lint fixture: a mini tree for the test-only-api rule.  Never built.
#ifndef WIDGET_H_
#define WIDGET_H_

namespace privtree {

/// Called by examples/demo.cpp: production, not flagged.
int UsedByProduction();

class Widget {
 public:
  Widget();
  /// Called only by the test and the bench: flagged.
  int OnlyTestsCallThis() const;
  /// Called from UsedByProduction's body in widget.cc: not flagged.
  int Helper() const;
  /// Two overloads that only call each other; only the test calls them
  /// from outside: flagged once, at the first declaration.
  int Twin(int a) const;
  int Twin(int a, int b) const;
};

}  // namespace privtree

#endif  // WIDGET_H_
