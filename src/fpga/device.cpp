#include "fpga/device.hpp"

#include <stdexcept>

namespace resim::fpga {

const std::vector<Device>& device_catalog() {
  static const std::vector<Device> kCatalog = {
      // name,        family,            slices, bram, f_minor (paper §V.C)
      {"xc4vlx40", Family::kVirtex4, 18432, 96, 84.0},
      {"xc5vlx50t", Family::kVirtex5, 7200, 60, 105.0},
      {"xc4vlx160", Family::kVirtex4, 67584, 288, 84.0},
      {"xc5vlx330t", Family::kVirtex5, 51840, 324, 105.0},
  };
  return kCatalog;
}

const Device& device_by_name(std::string_view name) {
  for (const Device& d : device_catalog()) {
    if (d.name == name) return d;
  }
  throw std::invalid_argument("device_by_name: unknown device " + std::string(name));
}

const Device& xc4vlx40() { return device_by_name("xc4vlx40"); }
const Device& xc5vlx50t() { return device_by_name("xc5vlx50t"); }
const Device& xc4vlx160() { return device_by_name("xc4vlx160"); }
const Device& xc5vlx330t() { return device_by_name("xc5vlx330t"); }

}  // namespace resim::fpga
