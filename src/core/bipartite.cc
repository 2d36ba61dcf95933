#include "core/bipartite.h"

#include <optional>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "netsim/trace.h"

namespace dflp::core {

net::ReliableStats run_protocol(
    const fl::Instance& inst, const MwParams& params, const ProtocolSpec& spec,
    FunctionRef<std::unique_ptr<net::Process>(net::NodeId)> make_node,
    FunctionRef<void(const net::NetMetrics&)> readout) {
  std::uint64_t max_rounds = spec.logical_bound;
  net::Network::Options options;
  options.bit_budget = spec.bit_budget;
  options.seed = spec.seed;
  options.num_threads = params.num_threads;
  options.delivery = params.delivery;
  options.faults = params.faults;
  options.tracer = params.tracer;
  if (params.reliable) {
    // Frames carry the inner payload plus a header for up to
    // `logical_bound` logical rounds; the physical bound leaves room for
    // loss-driven dilation plus the linger tail.
    options.bit_budget =
        net::reliable_bit_budget(spec.bit_budget, spec.logical_bound);
    max_rounds = 8 * spec.logical_bound + 160;
  }
  if (params.tracer != nullptr) params.tracer->set_section(spec.section);
  std::optional<net::Network> local;  // built only when none is lent
  net::Network& net =
      params.network != nullptr ? *params.network : local.emplace();
  make_bipartite_network(inst, std::move(options), net);

  net::ReliableChannel::Options channel;
  channel.inner_bit_budget = spec.bit_budget;
  for (std::size_t v = 0; v < net.num_nodes(); ++v) {
    const auto id = static_cast<net::NodeId>(v);
    std::unique_ptr<net::Process> node = make_node(id);
    if (params.reliable)
      node = std::make_unique<net::ReliableChannel>(std::move(node), channel);
    net.set_process(id, std::move(node));
  }

  try {
    readout(net.run(max_rounds));
  } catch (const CheckError& err) {
    const net::NetMetrics& m = net.cumulative_metrics();
    if (m.dropped == 0) throw;
    std::ostringstream os;
    os << err.what() << " [fault injection: first lost message was "
       << m.first_drop_src << "->" << m.first_drop_dst << " kind "
       << static_cast<int>(m.first_drop_kind) << " in round "
       << m.first_drop_round << "; " << m.dropped << " dropped total]";
    throw CheckError(os.str());
  }

  net::ReliableStats total;
  if (!params.reliable) return total;
  for (std::size_t v = 0; v < net.num_nodes(); ++v) {
    total.merge(static_cast<const net::ReliableChannel&>(
                    net.process(static_cast<net::NodeId>(v)))
                    .stats());
  }
  return total;
}

}  // namespace dflp::core
