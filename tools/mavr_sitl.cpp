// mavr-sitl — software-in-the-loop run of a container HEX on the simulated
// APM board, optionally behind the MAVR platform. Prints a per-second
// flight log like a ground station would. (Attack demonstrations need
// symbol names, which the flashable container deliberately strips — see
// examples/stealthy_attack.cpp for the library-level attack scenarios.)
//
//   mavr-sitl <container.hex> [--seconds N] [--mavr]
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>

#include "defense/external_flash.hpp"
#include "defense/master.hpp"
#include "defense/preprocess.hpp"
#include "sim/board.hpp"
#include "sim/flight.hpp"
#include "sim/ground.hpp"
#include "support/error.hpp"
#include "support/parse.hpp"
#include "toolchain/intelhex.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: mavr-sitl <container.hex> [--seconds N] [--mavr]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace mavr;
  if (argc < 2) return usage();
  int seconds = 6;
  bool use_mavr = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc) {
      const char* v = argv[++i];
      const auto n =
          support::parse_u64_in(v, 1, std::numeric_limits<int>::max());
      if (!n) {
        std::fprintf(stderr, "invalid value for --seconds: '%s'\n", v);
        return usage();
      }
      seconds = static_cast<int>(*n);
    } else if (std::strcmp(argv[i], "--mavr") == 0) {
      use_mavr = true;
    } else {
      std::fprintf(stderr, "bad argument: %s\n", argv[i]);
      return usage();
    }
  }

  std::ifstream in(argv[1], std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", argv[1]);
    return 1;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  const toolchain::HexImage hex = toolchain::intel_hex_decode(ss.str());
  const defense::Container container = defense::parse_container(hex.data);

  sim::Board board;
  defense::ExternalFlash flash;
  std::unique_ptr<defense::MasterProcessor> master;
  if (use_mavr) {
    defense::MasterConfig cfg;
    cfg.watchdog_timeout_cycles = 400'000;
    master = std::make_unique<defense::MasterProcessor>(flash, board, cfg);
    master->host_upload_hex(ss.str());
    master->boot();
    std::printf("[mavr] %zu blocks randomized, programmed in %.0f ms\n",
                master->symbol_count(), master->last_startup()->total_ms);
  } else {
    board.flash_image(container.image);
  }

  sim::FlightModel flight(board);
  sim::GroundStation gcs(board);

  std::printf("%-5s %-10s %-10s %-9s %-9s %-7s %s\n", "t(s)", "roll(deg)",
              "xgyro", "packets", "feeds", "link", "state");
  for (int second = 1; second <= seconds; ++second) {
    for (int tick = 0; tick < 100; ++tick) {
      flight.step(0.01);
      board.run_cycles(160'000);
      if (master) master->service();
    }
    gcs.poll();
    std::printf("%-5d %-10.1f %-10d %-9llu %-9llu %-7s %s\n", second,
                flight.state().roll_deg,
                gcs.last_imu() ? gcs.last_imu()->xgyro : 0,
                static_cast<unsigned long long>(gcs.packets_received()),
                static_cast<unsigned long long>(
                    board.feed_line().write_count()),
                gcs.garbage_bytes() == 0 ? "clean" : "garbage",
                board.cpu().state() == avr::CpuState::Running ? "flying"
                                                              : "DOWN");
  }
  if (master != nullptr) {
    std::printf("[mavr] attacks detected: %llu, randomizations: %u\n",
                static_cast<unsigned long long>(master->attacks_detected()),
                master->randomizations());
  }
  return 0;
} catch (const mavr::support::Error& e) {
  std::fprintf(stderr, "%s: %s\n", argv[1], e.what());
  return 1;
}
