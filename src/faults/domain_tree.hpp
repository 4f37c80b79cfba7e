// Correlated fault domains over a rack of rigs.
//
// Real outages are rarely independent: a PDU brownout dims every server
// hanging off that PDU, a rack-level budget slash squeezes every rig in
// the rack, a bad meter firmware rollout corrupts a whole hardware batch
// at once. The DomainTree models that correlation structure as a small
// fixed hierarchy — row → rack → PDU → rig — where a scripted fault
// attached to any node fans out to every descendant rig's fault plan.
//
// Determinism: each rig's composed hal::FaultPlan carries a seed derived
// from the tree seed and the rig's global index only, so the same campaign
// JSON replays bit-for-bit regardless of how many worker threads drive the
// rigs (--jobs N invariance, same contract as the rest of the repo).
//
// Fault classes and their fan-out (docs/fault_model.md has the table):
//   brownout      meter goes dark on every descendant rig for the window,
//                 and the rack budget scales by (1 - magnitude) while the
//                 sagged feed cannot deliver full power;
//   budget_slash  pure budget event: the rack budget scales by
//                 (1 - magnitude) for the window, rigs stay healthy;
//   meter_bug     firmware bug: every descendant meter serves NaN inside
//                 the window (hal::FaultPlan::meter_nan);
//   blackout      meter dark + actuation blackout on every descendant —
//                 the rig is unreachable, commands throw.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "hal/fault_injection.hpp"

namespace capgpu::faults {

/// Shape of the domain hierarchy. Rigs are numbered globally in
/// depth-first order: rig index = ((row * racks + rack) * pdus_per_rack
/// + pdu) * rigs_per_pdu + slot. `rows` defaults to 1 — the single
/// implicit row every pre-fleet campaign assumed — and with rows == 1 the
/// node paths stay the legacy three-component form ("rackR/pduP/rigI"),
/// so existing campaign JSON replays bit-for-bit. With rows > 1 every
/// path gains a leading "rowW/" component and `racks` means racks per
/// row.
struct DomainTopology {
  std::size_t racks{1};
  std::size_t pdus_per_rack{2};
  std::size_t rigs_per_pdu{2};
  /// Rows of `racks` racks each. Declared last so the long-standing
  /// three-field aggregate init `{racks, pdus, rigs}` keeps meaning a
  /// single implicit row.
  std::size_t rows{1};

  [[nodiscard]] std::size_t total_rigs() const {
    return rows * racks * pdus_per_rack * rigs_per_pdu;
  }
  [[nodiscard]] std::size_t total_racks() const { return rows * racks; }
};

/// Checks the topology's domain (every dimension >= 1); throws
/// InvalidArgument naming the offending field.
[[nodiscard]] DomainTopology validated(DomainTopology topology);

/// The four scripted fault classes.
enum class DomainFaultKind { kBrownout, kBudgetSlash, kMeterBug, kBlackout };

/// Lower-case kind name ("brownout" / "budget_slash" / "meter_bug" /
/// "blackout").
[[nodiscard]] const char* fault_kind_name(DomainFaultKind kind);

/// Parses a kind name; throws InvalidArgument on an unknown name.
[[nodiscard]] DomainFaultKind fault_kind_from(const std::string& name);

/// One scripted fault on one domain node.
struct DomainFault {
  DomainFaultKind kind{DomainFaultKind::kBrownout};
  double start_s{0.0};
  double duration_s{0.0};
  /// Fraction of the feed's capacity lost (brownout / budget_slash only,
  /// in (0, 1)); ignored for meter_bug and blackout.
  double magnitude{0.25};

  [[nodiscard]] double end_s() const { return start_s + duration_s; }
};

/// A window during which a feed delivers only `scale` of its watts,
/// produced by brownout and budget_slash faults. One budget rule per
/// campaign driver consumes it (fleet/campaign.hpp; one scorer for both):
///   rack   fleet::run_campaign scales its one rack budget by
///          budget_scale(now), every active event wherever attached;
///   fleet  FleetSim applies each event at its own node (node_scale), so
///          a PDU brownout derates only that PDU's rigs' ceilings.
/// They stay apart: as a one-rack FleetSim the reference PDU brownout
/// derates its rigs 650 -> 572 W, both A/B variants burn 19.80 during the
/// fault (rack rule: 26.21 baseline, 24.39 hardened), and the hardened
/// variant no longer burns less in total.
struct BudgetEvent {
  double start_s{0.0};
  double end_s{0.0};
  double scale{1.0};  ///< multiplier on the rack budget, in (0, 1)
  std::string node;   ///< the faulted node's path
  DomainFaultKind kind{DomainFaultKind::kBrownout};
};

/// The fault-domain hierarchy for one campaign.
class DomainTree {
 public:
  /// Throws InvalidArgument when the topology fails validation.
  DomainTree(DomainTopology topology, std::uint64_t seed);

  [[nodiscard]] const DomainTopology& topology() const { return topology_; }
  [[nodiscard]] std::size_t rig_count() const { return paths_.size(); }

  /// The rig's node path, e.g. "rack0/pdu1/rig0" (rows == 1) or
  /// "row1/rack0/pdu1/rig0" (rows > 1).
  [[nodiscard]] const std::string& rig_path(std::size_t rig) const;

  /// Attaches a scripted fault to a node. `node` is "" for the whole
  /// facility, then one path component per tier: with the implicit single
  /// row, "rackR", "rackR/pduP", or "rackR/pduP/rigI"; with rows > 1 every
  /// path starts with "rowW" ("row1", "row1/rack0", ...). Throws
  /// InvalidArgument for a malformed path, an index outside the topology,
  /// or a fault with a non-positive duration / out-of-range magnitude.
  void add_fault(const std::string& node, DomainFault fault);

  /// Global indices of every rig at or below `node` (validates the path).
  [[nodiscard]] std::vector<std::size_t> rigs_under(
      const std::string& node) const;

  /// The composed fault plan for one rig: every attached fault whose
  /// domain contains the rig contributes its windows. The plan's seed
  /// depends only on the tree seed and the rig index, never on insertion
  /// order of unrelated faults.
  [[nodiscard]] hal::FaultPlan rig_plan(std::size_t rig) const;

  /// Budget events from every attached brownout / budget_slash, in
  /// insertion order.
  [[nodiscard]] const std::vector<BudgetEvent>& budget_events() const {
    return budget_events_;
  }

  /// Product of every budget event's scale active at `now` (1.0 when the
  /// feed is clean): the rack rule.
  [[nodiscard]] double budget_scale(double now) const;

  /// Product of the scales of budget events attached to exactly `node`
  /// (not its descendants) active at `now`: the fleet rule, under which a
  /// row brownout shrinks the row's deliverable watts. Validates the path.
  [[nodiscard]] double node_scale(const std::string& node, double now) const;

  /// The attached faults, in insertion order (node path, fault).
  [[nodiscard]] const std::vector<std::pair<std::string, DomainFault>>&
  faults() const {
    return faults_;
  }

 private:
  DomainTopology topology_;
  std::uint64_t seed_;
  std::vector<std::string> paths_;  ///< per-rig node paths
  std::vector<std::pair<std::string, DomainFault>> faults_;
  std::vector<BudgetEvent> budget_events_;
};

}  // namespace capgpu::faults
