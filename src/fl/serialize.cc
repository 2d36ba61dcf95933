#include "fl/serialize.h"

#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "common/check.h"

namespace dflp::fl {

void write_instance(std::ostream& os, const Instance& inst) {
  os << "dflp-ufl 1\n";
  os << inst.num_facilities() << ' ' << inst.num_clients() << ' '
     << inst.num_edges() << '\n';
  os.precision(17);
  for (FacilityId i = 0; i < inst.num_facilities(); ++i) {
    os << inst.opening_cost(i) << (i + 1 < inst.num_facilities() ? ' ' : '\n');
  }
  for (FacilityId i = 0; i < inst.num_facilities(); ++i) {
    for (const FacilityEdge& e : inst.facility_edges(i)) {
      os << i << ' ' << e.client << ' ' << e.cost << '\n';
    }
  }
}

std::string to_text(const Instance& inst) {
  std::ostringstream os;
  write_instance(os, inst);
  return os.str();
}

Instance read_instance(std::istream& is) {
  std::string magic;
  int version = 0;
  is >> magic >> version;
  DFLP_CHECK_MSG(is && magic == "dflp-ufl" && version == 1,
                 "bad header: expected 'dflp-ufl 1', got '" << magic << ' '
                                                            << version << "'");
  std::int64_t m = 0;
  std::int64_t n = 0;
  std::int64_t edges = 0;
  is >> m >> n >> edges;
  // Ids are int32; and since every client needs an edge, n <= E. Nothing
  // below loops or allocates on a count the bytes read so far do not back:
  // each facility and edge consumes its own line, and the n clients are one
  // counter until the E >= n edge lines have been read.
  constexpr std::int64_t kMaxCount = std::numeric_limits<std::int32_t>::max();
  DFLP_CHECK_MSG(is && m > 0 && n > 0 && edges >= 0 && m <= kMaxCount &&
                     n <= kMaxCount && edges <= kMaxCount,
                 "bad dimensions m=" << m << " n=" << n << " E=" << edges);
  DFLP_CHECK_MSG(n <= edges, "bad dimensions: " << n
                                                 << " clients need at least "
                                                    "as many edges, got E="
                                                 << edges);

  InstanceBuilder builder;
  for (std::int64_t i = 0; i < m; ++i) {
    Cost f = 0.0;
    is >> f;
    DFLP_CHECK_MSG(is.good() || is.eof(), "truncated opening costs");
    DFLP_CHECK_MSG(!is.fail(), "malformed opening cost at index " << i);
    builder.add_facility(f);
  }
  builder.add_clients(static_cast<std::int32_t>(n));
  for (std::int64_t e = 0; e < edges; ++e) {
    std::int64_t i = 0;
    std::int64_t j = 0;
    Cost c = 0.0;
    is >> i >> j >> c;
    DFLP_CHECK_MSG(!is.fail(), "malformed edge line " << e);
    // Range-check before the int32 narrowing, which would wrap.
    DFLP_CHECK_MSG(i >= 0 && i < m && j >= 0 && j < n,
                   "edge line " << e << " names facility " << i
                                << " / client " << j << " out of range");
    builder.connect(static_cast<FacilityId>(i), static_cast<ClientId>(j), c);
  }
  return builder.build();
}

Instance from_text(const std::string& text) {
  std::istringstream is(text);
  return read_instance(is);
}

void write_snapshot(std::ostream& os, const InstanceSnapshot& snap) {
  os << "dflp-snap 1\n";
  os << snap.epoch() << ' ' << snap.next_facility_key() << ' '
     << snap.next_client_key() << '\n';
  write_instance(os, snap.instance());
  const Instance& inst = snap.instance();
  for (FacilityId i = 0; i < inst.num_facilities(); ++i)
    os << snap.facility_key(i) << (i + 1 < inst.num_facilities() ? ' ' : '\n');
  for (ClientId j = 0; j < inst.num_clients(); ++j)
    os << snap.client_key(j) << (j + 1 < inst.num_clients() ? ' ' : '\n');
}

std::string snapshot_to_text(const InstanceSnapshot& snap) {
  std::ostringstream os;
  write_snapshot(os, snap);
  return os.str();
}

InstanceSnapshot read_snapshot(std::istream& is) {
  std::string magic;
  int version = 0;
  is >> magic >> version;
  DFLP_CHECK_MSG(is && magic == "dflp-snap" && version == 1,
                 "bad header: expected 'dflp-snap 1', got '"
                     << magic << ' ' << version << "'");
  EpochId epoch = 0;
  NodeKey next_f = 0;
  NodeKey next_c = 0;
  is >> epoch >> next_f >> next_c;
  DFLP_CHECK_MSG(!is.fail(), "malformed snapshot epoch line");
  Instance inst = read_instance(is);
  std::vector<NodeKey> fkeys(static_cast<std::size_t>(inst.num_facilities()));
  std::vector<NodeKey> ckeys(static_cast<std::size_t>(inst.num_clients()));
  for (NodeKey& k : fkeys) is >> k;
  DFLP_CHECK_MSG(!is.fail(), "truncated facility keys");
  for (NodeKey& k : ckeys) is >> k;
  DFLP_CHECK_MSG(!is.fail(), "truncated client keys");
  return InstanceSnapshot::restore(std::move(inst), epoch, std::move(fkeys),
                                   std::move(ckeys), next_f, next_c);
}

InstanceSnapshot snapshot_from_text(const std::string& text) {
  std::istringstream is(text);
  return read_snapshot(is);
}

void write_delta_log(std::ostream& os, const DeltaLog& log) {
  os << "dflp-delta-log 1\n" << log.size() << '\n';
  os.precision(17);
  for (const Delta& d : log.deltas()) {
    switch (d.kind) {
      case Delta::Kind::kClientArrive:
        os << "arrive " << d.client << ' ' << d.edges.size();
        for (const KeyedEdge& e : d.edges) os << ' ' << e.peer << ' '
                                              << e.cost;
        os << '\n';
        break;
      case Delta::Kind::kClientDepart:
        os << "depart " << d.client << '\n';
        break;
      case Delta::Kind::kFacilityOpen:
        os << "open " << d.facility << ' ' << d.cost << ' '
           << d.edges.size();
        for (const KeyedEdge& e : d.edges) os << ' ' << e.peer << ' '
                                              << e.cost;
        os << '\n';
        break;
      case Delta::Kind::kFacilityClose:
        os << "close " << d.facility << '\n';
        break;
      case Delta::Kind::kEdgeCostChange:
        os << "reprice " << d.facility << ' ' << d.client << ' ' << d.cost
           << '\n';
        break;
    }
  }
}

std::string delta_log_to_text(const DeltaLog& log) {
  std::ostringstream os;
  write_delta_log(os, log);
  return os.str();
}

DeltaLog read_delta_log(std::istream& is) {
  std::string magic;
  int version = 0;
  is >> magic >> version;
  DFLP_CHECK_MSG(is && magic == "dflp-delta-log" && version == 1,
                 "bad header: expected 'dflp-delta-log 1', got '"
                     << magic << ' ' << version << "'");
  std::int64_t count = 0;
  is >> count;
  DFLP_CHECK_MSG(!is.fail() && count >= 0, "bad delta count " << count);

  const auto read_edges = [&is](std::int64_t line) {
    std::int64_t deg = 0;
    is >> deg;
    DFLP_CHECK_MSG(!is.fail() && deg >= 0,
                   "bad edge count on delta line " << line);
    // One edge at a time: `deg` is untrusted input, so only edges actually
    // read are ever allocated.
    std::vector<KeyedEdge> edges;
    for (std::int64_t e = 0; e < deg; ++e) {
      KeyedEdge edge;
      is >> edge.peer >> edge.cost;
      DFLP_CHECK_MSG(!is.fail(), "truncated edges on delta line " << line);
      edges.push_back(edge);
    }
    return edges;
  };

  DeltaLog log;
  for (std::int64_t t = 0; t < count; ++t) {
    std::string kind;
    is >> kind;
    DFLP_CHECK_MSG(!is.fail(), "truncated delta log at entry " << t);
    if (kind == "arrive") {
      NodeKey c = kNoKey;
      is >> c;
      log.append(Delta::client_arrive(c, read_edges(t)));
    } else if (kind == "depart") {
      NodeKey c = kNoKey;
      is >> c;
      log.append(Delta::client_depart(c));
    } else if (kind == "open") {
      NodeKey f = kNoKey;
      Cost opening = 0.0;
      is >> f >> opening;
      log.append(Delta::facility_open(f, opening, read_edges(t)));
    } else if (kind == "close") {
      NodeKey f = kNoKey;
      is >> f;
      log.append(Delta::facility_close(f));
    } else if (kind == "reprice") {
      NodeKey f = kNoKey;
      NodeKey c = kNoKey;
      Cost cost = 0.0;
      is >> f >> c >> cost;
      log.append(Delta::edge_cost_change(f, c, cost));
    } else {
      DFLP_CHECK_MSG(false, "unknown delta kind '" << kind << "' at entry "
                                                   << t);
    }
    DFLP_CHECK_MSG(!is.fail(), "malformed delta at entry " << t);
  }
  return log;
}

DeltaLog delta_log_from_text(const std::string& text) {
  std::istringstream is(text);
  return read_delta_log(is);
}

}  // namespace dflp::fl
