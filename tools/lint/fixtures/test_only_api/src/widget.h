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
};

}  // namespace privtree

#endif  // WIDGET_H_
