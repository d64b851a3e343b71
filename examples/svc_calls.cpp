// Switched virtual circuits: Q.2931-style call setup over the signaling
// channel (VPI 0 / VCI 5), data on the dynamically assigned VC, teardown —
// first on a LAN, then across the NYNET backbone where the setup handshake
// pays real WAN propagation.
#include <cstdio>

#include "atm/signaling.hpp"

using namespace ncs;
using namespace ncs::atm;

namespace {

void lan_demo() {
  sim::Engine engine;
  FabricConfig lc;
  lc.n_hosts = 3;
  AtmFabric lan(engine, lc);
  CallController controller(engine, lan);

  std::printf("--- LAN: host 0 calls host 2 ---\n");
  controller.agent(2);  // callee comes online (accepts by default)

  VcId data_vc{};
  controller.agent(0).open_call(2, [&](Result<VcId> vc) {
    data_vc = vc.value();
    std::printf("[%s] call connected; transmit label VPI %u / VCI %u\n",
                engine.now().to_string().c_str(), data_vc.vpi, data_vc.vci);
  });
  engine.run();

  lan.nic(2).set_rx_handler([&](VcId vc, Bytes data, bool) {
    std::printf("[%s] host 2 received %zu bytes on VCI %u\n",
                engine.now().to_string().c_str(), data.size(), vc.vci);
  });
  lan.nic(0).submit_tx(data_vc, Bytes(2000, std::byte{0x33}), true);
  engine.run();

  controller.agent(0).release_call(data_vc);
  engine.run();
  std::printf("[%s] call released; %llu setups, %llu active\n\n",
              engine.now().to_string().c_str(),
              static_cast<unsigned long long>(controller.stats().setups),
              static_cast<unsigned long long>(controller.stats().active_calls));
}

void wan_demo() {
  sim::Engine engine;
  FabricConfig wc;
  wc.n_sites = 2;
  wc.n_hosts = 4;
  wc.nic.io_buffer_size = 9216;  // one 8 KB message = one I/O buffer
  AtmFabric wan(engine, wc);
  CallController controller(engine, wan);

  std::printf("--- NYNET WAN: host 0 (site 0) calls host 3 (site 1) ---\n");
  controller.agent(3);

  VcId data_vc{};
  controller.agent(0).open_call(3, [&](Result<VcId> vc) {
    data_vc = vc.value();
    std::printf("[%s] cross-site call connected (setup crossed the DS-3 "
                "backbone %llu times)\n",
                engine.now().to_string().c_str(),
                static_cast<unsigned long long>(controller.stats().backbone_hops));
  });
  engine.run();

  wan.nic(3).set_rx_handler([&](VcId vc, Bytes data, bool) {
    std::printf("[%s] host 3 received %zu bytes on VCI %u, label-switched "
                "across both sites\n",
                engine.now().to_string().c_str(), data.size(), vc.vci);
  });
  wan.nic(0).submit_tx(data_vc, Bytes(8000, std::byte{0x44}), true);
  engine.run();
}

}  // namespace

int main() {
  std::printf("ATM switched virtual circuits (extension beyond the paper's "
              "preconfigured PVC mesh)\n\n");
  lan_demo();
  wan_demo();
  return 0;
}
