// FPGA device catalog.
//
// The paper implements ReSim on a Virtex-4 xc4vlx40 and a Virtex-5
// xc5vlx50t (Xilinx ISE 9.1i) and reports minor-cycle clocks of 84 MHz
// and 105 MHz respectively (§V.C). Those measured frequencies are
// constants of this model; capacities come from the Xilinx data sheets.
// Larger parts are included for the multi-core fit study (§VI).
#ifndef RESIM_FPGA_DEVICE_H
#define RESIM_FPGA_DEVICE_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace resim::fpga {

enum class Family : std::uint8_t { kVirtex2Pro, kVirtex4, kVirtex5 };

struct Device {
  std::string name;
  Family family = Family::kVirtex4;
  std::uint32_t slices = 0;       ///< native slices (V4: 2xLUT4, V5: 4xLUT6)
  std::uint32_t bram_blocks = 0;  ///< 18 Kb blocks (V4) / 36 Kb blocks (V5)
  double minor_clock_mhz = 0;     ///< ReSim minor-cycle clock on this part

  /// Capacity in Virtex-4-equivalent slices (the area model's unit).
  /// A Virtex-5 slice (four 6-LUTs) packs roughly 2.2 Virtex-4 slices
  /// (two 4-LUTs) of this kind of control logic.
  [[nodiscard]] double v4_equivalent_slices() const {
    return family == Family::kVirtex5 ? slices * 2.2 : static_cast<double>(slices);
  }
  /// Capacity in 18 Kb BRAM-equivalents.
  [[nodiscard]] double bram18_equivalents() const {
    return family == Family::kVirtex5 ? bram_blocks * 2.0 : static_cast<double>(bram_blocks);
  }
};

/// The paper's two implementation targets.
[[nodiscard]] const Device& xc4vlx40();
[[nodiscard]] const Device& xc5vlx50t();

/// Larger parts for the CMP fit study.
[[nodiscard]] const Device& xc4vlx160();
[[nodiscard]] const Device& xc5vlx330t();

[[nodiscard]] const std::vector<Device>& device_catalog();
[[nodiscard]] const Device& device_by_name(std::string_view name);

}  // namespace resim::fpga

#endif  // RESIM_FPGA_DEVICE_H
